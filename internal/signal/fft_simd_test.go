package signal

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/simd"
)

// withBothDispatchModes computes fn once per dispatch path and hands
// both results to check. Skips entirely when this build has no asm
// kernels.
func withBothDispatchModes(t *testing.T, fn func() []complex128, check func(goRes, simdRes []complex128)) {
	t.Helper()
	if simd.HWMode() == "" {
		t.Skip("no asm kernels in this build")
	}
	prev := simd.Enabled()
	defer simd.SetEnabled(prev)
	simd.SetEnabled(false)
	goRes := fn()
	if !simd.SetEnabled(true) && !simd.Enabled() {
		t.Skip("asm kernels refused to enable")
	}
	simdRes := fn()
	check(goRes, simdRes)
}

// TestFFTDispatchBitIdentity runs FFT, IFFT and InverseRaw at every
// power-of-two size from 2 to 1024 in both dispatch modes, on random
// samples and on inputs where a butterfly's exact operations show: all
// −0 (a+p and a−p of signed zeros, and the ·0 cross terms of every
// product, unit twiddles included), ±0 in a random pattern, one
// infinity or NaN among zeros (Inf·0 makes NaN only where a product is
// really taken) and subnormals. This is the acceptance criterion for
// the SIMD butterflies: no reassociation, no FMA contraction, exact
// scalar operation order.
func TestFFTDispatchBitIdentity(t *testing.T) {
	negZero := math.Copysign(0, -1)
	rng := rand.New(rand.NewSource(11))
	for n := 2; n <= 1024; n <<= 1 {
		type input struct {
			name string
			x    []complex128
		}
		var inputs []input
		fill := func(name string, v func(i int) complex128) {
			x := make([]complex128, n)
			for i := range x {
				x[i] = v(i)
			}
			inputs = append(inputs, input{name, x})
		}
		fill("normal", func(int) complex128 { return complex(rng.NormFloat64(), rng.NormFloat64()) })
		fill("all −0", func(int) complex128 { return complex(negZero, negZero) })
		fill("±0", func(int) complex128 {
			re, im := 0.0, 0.0
			if rng.Intn(2) == 0 {
				re = negZero
			}
			if rng.Intn(2) == 0 {
				im = negZero
			}
			return complex(re, im)
		})
		for _, v := range []complex128{complex(math.Inf(1), 0), complex(negZero, math.Inf(-1)), complex(math.NaN(), 0)} {
			at := rng.Intn(n)
			fill(fmt.Sprintf("%v at %d", v, at), func(i int) complex128 {
				if i == at {
					return v
				}
				return 0
			})
		}
		fill("subnormals", func(i int) complex128 {
			return complex(float64(i%5-2)*5e-324, float64(i%3-1)*0x1p-1060)
		})
		for _, in := range inputs {
			for _, tr := range fftTransforms(n) {
				withBothDispatchModes(t, func() []complex128 {
					x := append([]complex128(nil), in.x...)
					if err := tr.run(x); err != nil {
						t.Fatal(err)
					}
					return x
				}, func(goRes, simdRes []complex128) {
					requireSameBins(t, fmt.Sprintf("%d-point %s of %s", n, tr.name, in.name), in.x, goRes, simdRes)
				})
			}
		}
	}
}

// fftTransforms lists the plan's three transforms for size n.
func fftTransforms(n int) []struct {
	name string
	run  func([]complex128) error
} {
	p, err := PlanFor(n)
	if err != nil {
		panic(err)
	}
	return []struct {
		name string
		run  func([]complex128) error
	}{{"FFT", p.FFT}, {"IFFT", p.IFFT}, {"InverseRaw", p.InverseRaw}}
}

// requireSameBins is the FFT exactness contract: the same bins are NaN,
// every other bin is bit-identical.
func requireSameBins(t *testing.T, label string, in, goX, simdX []complex128) {
	t.Helper()
	for i := range goX {
		for _, part := range []struct {
			name string
			g, s float64
		}{{"re", real(goX[i]), real(simdX[i])}, {"im", imag(goX[i]), imag(simdX[i])}} {
			gn, sn := math.IsNaN(part.g), math.IsNaN(part.s)
			if gn != sn {
				t.Fatalf("%s: bin %d %s: NaN-ness differs: go %v simd %v (input %v)", label, i, part.name, part.g, part.s, in)
			}
			if !gn && math.Float64bits(part.g) != math.Float64bits(part.s) {
				t.Fatalf("%s: bin %d %s: go %v (%016x) simd %v (%016x) (input %v)",
					label, i, part.name, part.g, math.Float64bits(part.g), part.s, math.Float64bits(part.s), in)
			}
		}
	}
}

// FuzzFFTSIMD is the FFT half of `make fuzz-simd`: arbitrary sample
// bytes (interpreted as float64 bits, so NaNs, infinities, subnormals
// and negative zeros all appear) run through FFT, IFFT and InverseRaw
// in both dispatch modes, at every power-of-two size up to 512 (the
// WiFi detection screen's). Finite results must match bitwise. NaN bins
// are compared as a class rather than by payload: a NaN's payload after
// a multiply depends on which operand the hardware propagates and on
// compiler register allocation, which is outside the exactness contract
// — the contract is "same bins are NaN, all other bins bit-identical".
func FuzzFFTSIMD(f *testing.F) {
	rng := rand.New(rand.NewSource(13))
	blob := make([]byte, 16*16)
	rng.Read(blob)
	f.Add(blob)
	f.Add(fuzzSamples(16*8, func(i int) float64 {
		if i%4 == 2 {
			return math.Inf(-1)
		}
		return math.NaN()
	}))
	// Signed zeros, subnormals and infinities among ordinary values: the
	// butterflies' ·0 cross terms and a−p of equal values decide the
	// sign of every zero, and Inf·0 makes NaNs.
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 0x1p-1022, math.Inf(1), math.Inf(-1), 1, -1}
	f.Add(fuzzSamples(2*64, func(i int) float64 { return specials[i%len(specials)] }))
	f.Add(fuzzSamples(2*512, func(i int) float64 {
		if i%7 == 0 {
			return specials[(i/7)%len(specials)]
		}
		return rng.NormFloat64()
	}))

	f.Fuzz(func(t *testing.T, raw []byte) {
		if simd.HWMode() == "" {
			t.Skip("no asm kernels in this build")
		}
		vals := len(raw) / 16
		n := 1
		for n*2 <= vals && n < 512 {
			n *= 2
		}
		if n < 2 {
			t.Skip("not enough bytes for a transform")
		}
		in := make([]complex128, n)
		for i := range in {
			re := binary.LittleEndian.Uint64(raw[16*i:])
			im := binary.LittleEndian.Uint64(raw[16*i+8:])
			in[i] = complex(math.Float64frombits(re), math.Float64frombits(im))
		}
		for _, tr := range fftTransforms(n) {
			withBothDispatchModes(t, func() []complex128 {
				x := append([]complex128(nil), in...)
				if err := tr.run(x); err != nil {
					t.Fatal(err)
				}
				return x
			}, func(goX, simdX []complex128) {
				requireSameBins(t, tr.name, in, goX, simdX)
			})
		}
	})
}

// fuzzSamples encodes count float64 values, v(0), v(1), ..., as the
// little-endian bytes FuzzFFTSIMD reads (real, imaginary, real, ...).
func fuzzSamples(count int, v func(i int) float64) []byte {
	out := make([]byte, 8*count)
	for i := 0; i < count; i++ {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v(i)))
	}
	return out
}
