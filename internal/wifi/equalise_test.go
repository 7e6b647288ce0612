package wifi

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/simd"
)

// FuzzEqualiseDispatch feeds raw float64 bits, ±0, ±Inf, NaN and
// subnormals included, as the 64 bins of a transformed symbol and as
// the 64 channel-estimate bins, and demands of the dispatched
// equaliser (simd.Equalise, falling back on its NaN report) the bits of
// the Go loops, every NaN counted equal to any other NaN: the kernel
// follows the runtime division on every non-NaN bit, and where both
// Smith quotient parts are NaN it reports the bin, so the runtime's own
// fallback decides the value.
func FuzzEqualiseDispatch(f *testing.F) {
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, -5e-324, 2.2250738585072014e-308, 1, -1, 0.5, 1e300, -1e-300, 3}
	seed := make([]byte, 2*2*FFTSize*8)
	for i := 0; i < len(seed)/8; i++ {
		binary.LittleEndian.PutUint64(seed[8*i:], math.Float64bits(special[i%len(special)]))
	}
	f.Add(seed)
	for i := 0; i < len(seed)/8; i++ {
		binary.LittleEndian.PutUint64(seed[8*i:], math.Float64bits(float64(i%7)-2.5))
	}
	f.Add(seed)
	f.Add([]byte{0x7f, 0xf0, 0, 0, 0, 0, 0, 1})
	// H = (Inf, Inf) on every bin, samples (1, 2): Smith's ratio is
	// Inf/Inf, both quotient parts NaN, and the runtime's fallback
	// returns zeros, so this fails unless the kernel's NaN report is
	// honoured.
	infH := make([]byte, 4*FFTSize*8)
	for i := 0; i < 4*FFTSize; i++ {
		v := math.Inf(1)
		if i >= 2*FFTSize {
			v = float64(1 + i%2)
		}
		binary.LittleEndian.PutUint64(infH[8*i:], math.Float64bits(v))
	}
	f.Add(infH)
	f.Fuzz(func(t *testing.T, raw []byte) {
		if simd.HWMode() == "" {
			t.Skip("no asm kernels in this build")
		}
		// Raw bits, cycling through the input (zeros if empty): the H
		// bins first, then the samples.
		vals := make([]float64, 4*FFTSize)
		for i := range vals {
			var w [8]byte
			for j := range w {
				if len(raw) > 0 {
					w[j] = raw[(8*i+j)%len(raw)]
				}
			}
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
		}
		h := make([]complex128, FFTSize)
		buf := make([]complex128, FFTSize)
		for i := range h {
			h[i] = complex(vals[2*i], vals[2*i+1])
			buf[i] = complex(vals[2*FFTSize+2*i], vals[2*FFTSize+2*i+1])
		}
		var eq equalizer
		eq.init(h)
		inv := complex(sqrtNused/float64(FFTSize), 0)
		var wantD, gotD [NumData]complex128
		var wantP, gotP [NumPilots]complex128
		eq.applyGo(buf, inv, &wantD, &wantP)
		prev := simd.SetEnabled(true)
		eq.apply(buf, inv, &gotD, &gotP)
		simd.SetEnabled(prev)
		same := func(a, b complex128) bool {
			eqBits := func(x, y float64) bool {
				return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
			}
			return eqBits(real(a), real(b)) && eqBits(imag(a), imag(b))
		}
		for i := range wantD {
			if !same(wantD[i], gotD[i]) {
				t.Fatalf("data %d (bin %d): go %v simd %v; h %v sample %v", i, dataBins[i], wantD[i], gotD[i], h[dataBins[i]], buf[dataBins[i]])
			}
		}
		for i := range wantP {
			if !same(wantP[i], gotP[i]) {
				t.Fatalf("pilot %d (bin %d): go %v simd %v; h %v sample %v", i, pilotBins[i], wantP[i], gotP[i], h[pilotBins[i]], buf[pilotBins[i]])
			}
		}
	})
}
