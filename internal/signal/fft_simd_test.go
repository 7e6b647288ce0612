package signal

import (
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

func requireBitIdentical(t *testing.T, label string, goRes, simdRes []complex128) {
	t.Helper()
	if len(goRes) != len(simdRes) {
		t.Fatalf("%s: length %d vs %d", label, len(goRes), len(simdRes))
	}
	for i := range goRes {
		if math.Float64bits(real(goRes[i])) != math.Float64bits(real(simdRes[i])) ||
			math.Float64bits(imag(goRes[i])) != math.Float64bits(imag(simdRes[i])) {
			t.Fatalf("%s: bin %d differs bitwise: go %v simd %v", label, i, goRes[i], simdRes[i])
		}
	}
}

func randomComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// TestFFTDispatchBitIdentity runs FFT and IFFT over every power-of-two
// size the pipeline uses in both dispatch modes and requires bitwise
// float identity — the acceptance criterion for the SIMD butterflies:
// no reassociation, no FMA contraction, exact scalar operation order.
func TestFFTDispatchBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 2; n <= 1024; n <<= 1 {
		in := randomComplex(rng, n)
		withBothDispatchModes(t, func() []complex128 {
			x := append([]complex128(nil), in...)
			if err := FFT(x); err != nil {
				t.Fatal(err)
			}
			return x
		}, func(goRes, simdRes []complex128) {
			requireBitIdentical(t, "FFT", goRes, simdRes)
		})
		withBothDispatchModes(t, func() []complex128 {
			x := append([]complex128(nil), in...)
			if err := IFFT(x); err != nil {
				t.Fatal(err)
			}
			return x
		}, func(goRes, simdRes []complex128) {
			requireBitIdentical(t, "IFFT", goRes, simdRes)
		})
	}
}

// FuzzFFTSIMD is the FFT half of `make fuzz-simd`: arbitrary sample
// bytes (interpreted as float64 bits, so NaNs, infinities, subnormals
// and negative zeros all appear) run through both dispatch modes.
// Finite results must match bitwise. NaN bins are compared as a class
// rather than by payload: a NaN's payload after a multiply depends on
// which operand the hardware propagates and on compiler register
// allocation, which is outside the exactness contract — the contract is
// "same bins are NaN, all other bins bit-identical".
func FuzzFFTSIMD(f *testing.F) {
	rng := rand.New(rand.NewSource(13))
	blob := make([]byte, 16*16)
	rng.Read(blob)
	f.Add(blob)
	nan := make([]byte, 16*8)
	for i := 0; i < len(nan); i += 8 {
		v := math.Float64bits(math.NaN())
		if i%32 == 16 {
			v = math.Float64bits(math.Inf(-1))
		}
		for b := 0; b < 8; b++ {
			nan[i+b] = byte(v >> (8 * b))
		}
	}
	f.Add(nan)

	f.Fuzz(func(t *testing.T, raw []byte) {
		if simd.HWMode() == "" {
			t.Skip("no asm kernels in this build")
		}
		vals := len(raw) / 16
		n := 1
		for n*2 <= vals && n < 256 {
			n *= 2
		}
		if n < 2 {
			t.Skip("not enough bytes for a transform")
		}
		in := make([]complex128, n)
		for i := range in {
			reBits := uint64(0)
			imBits := uint64(0)
			for b := 0; b < 8; b++ {
				reBits |= uint64(raw[16*i+b]) << (8 * b)
				imBits |= uint64(raw[16*i+8+b]) << (8 * b)
			}
			in[i] = complex(math.Float64frombits(reBits), math.Float64frombits(imBits))
		}

		prev := simd.Enabled()
		defer simd.SetEnabled(prev)
		simd.SetEnabled(false)
		goX := append([]complex128(nil), in...)
		if err := FFT(goX); err != nil {
			t.Fatal(err)
		}
		if !simd.SetEnabled(true) && !simd.Enabled() {
			t.Skip("asm kernels refused to enable")
		}
		simdX := append([]complex128(nil), in...)
		if err := FFT(simdX); err != nil {
			t.Fatal(err)
		}

		for i := range goX {
			checkPart := func(part string, g, s float64) {
				gn, sn := math.IsNaN(g), math.IsNaN(s)
				if gn != sn {
					t.Fatalf("bin %d %s: NaN-ness differs: go %v simd %v (input %v)", i, part, g, s, in)
				}
				if !gn && math.Float64bits(g) != math.Float64bits(s) {
					t.Fatalf("bin %d %s: go %v (%016x) simd %v (%016x) (input %v)",
						i, part, g, math.Float64bits(g), s, math.Float64bits(s), in)
				}
			}
			checkPart("re", real(goX[i]), real(simdX[i]))
			checkPart("im", imag(goX[i]), imag(simdX[i]))
		}
	})
}
