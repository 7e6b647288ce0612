package simd

import (
	"math"
	"math/rand"
	"testing"
)

// The receive kernels' callers (signal.ConvolveInto, zigbee's preamble
// scan) hold their Go twins and fuzz against them at the shapes they
// use. These tests check the kernels against their documented formulas
// over shapes the callers never produce: short templates, strides wider
// than the pass, several passes per call.

func requireAVX2Kernels(t *testing.T) {
	if !AVX2Enabled() {
		t.Skip("AVX2 kernels not dispatched on this build")
	}
}

func randComplexes(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func requireBits(t *testing.T, label string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: got %v (%016x), want %v (%016x)", label, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// firRealRef is FIRReal's documented formula in Go's complex
// arithmetic, ·0 cross terms included: signal's firRealGo.
func firRealRef(dst, x []complex128, h []float64) {
	m := len(h)
	for q := range dst {
		var acc complex128
		for t := 0; t < m; t++ {
			acc += x[q+t] * complex(h[m-1-t], 0)
		}
		dst[q] = acc
	}
}

func allFinite(x []complex128) bool {
	for _, v := range x {
		if math.IsInf(real(v), 0) || math.IsNaN(real(v)) || math.IsInf(imag(v), 0) || math.IsNaN(imag(v)) {
			return false
		}
	}
	return true
}

// requireSameNaNClass is requireBits with two NaNs matching whatever
// their payloads (the package's exactness contract).
func requireSameNaNClass(t *testing.T, label string, got, want float64) {
	t.Helper()
	if math.IsNaN(got) && math.IsNaN(want) {
		return
	}
	requireBits(t, label, got, want)
}

func TestFIRRealMatchesDefinition(t *testing.T) {
	requireAVX2Kernels(t)
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ n, m int }{{8, 1}, {8, 2}, {16, 7}, {40, 129}, {64, 3}} {
		h := make([]float64, tc.m)
		for i := range h {
			h[i] = rng.NormFloat64()
		}
		x := randComplexes(rng, tc.n+tc.m-1+rng.Intn(3))
		dst := make([]complex128, tc.n)
		want := make([]complex128, tc.n)
		if !FIRReal(dst, x, h) {
			t.Fatalf("n=%d m=%d: finite input reported non-finite", tc.n, tc.m)
		}
		firRealRef(want, x, h)
		for q := range dst {
			requireBits(t, "re", real(dst[q]), real(want[q]))
			requireBits(t, "im", imag(dst[q]), imag(want[q]))
		}
	}
}

// TestFIRRealFiniteFlag pins the contract that lets the kernel drop the
// ·0 cross terms: it reports false exactly when some output is
// non-finite, and a single Inf or NaN anywhere in the input, real or
// imaginary part, always makes one. With 24 outputs the sample can sit
// in any of three 8-output passes, so the flag must survive the later
// finite ones.
func TestFIRRealFiniteFlag(t *testing.T) {
	requireAVX2Kernels(t)
	rng := rand.New(rand.NewSource(3))
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	for _, m := range []int{1, 25, 129} {
		h := make([]float64, m)
		for i := range h {
			h[i] = rng.NormFloat64()
		}
		for _, n := range []int{8, 24} {
			clean := randComplexes(rng, n+m-1)
			dst := make([]complex128, n)
			if !FIRReal(dst, clean, h) {
				t.Fatalf("m=%d n=%d: finite input reported non-finite", m, n)
			}
			x := make([]complex128, len(clean))
			for off := range x {
				for _, v := range specials {
					for part := 0; part < 2; part++ {
						copy(x, clean)
						if part == 0 {
							x[off] = complex(v, imag(x[off]))
						} else {
							x[off] = complex(real(x[off]), v)
						}
						finite := FIRReal(dst, x, h)
						if finite || allFinite(dst) {
							t.Fatalf("m=%d n=%d: %v at offset %d (part %d): reported finite=%v, outputs finite=%v",
								m, n, v, off, part, finite, allFinite(dst))
						}
					}
				}
			}
		}
	}
}

// TestFIRRealFiniteEdgeValues feeds finite inputs where the dropped
// cross terms could show if the zero-sign argument were wrong: mostly
// ±0 and subnormals, whose products are signed zeros, and MaxFloat64,
// whose products and sums overflow. On finite input every output must
// match the Go definition bit for bit, overflowed ones included, and
// the flag must still equal "every output is finite".
func TestFIRRealFiniteEdgeValues(t *testing.T) {
	requireAVX2Kernels(t)
	negZero := math.Copysign(0, -1)
	edge := []float64{0, negZero, 5e-324, -5e-324, 2.2250738585072009e-308, math.MaxFloat64, -math.MaxFloat64, 1, -1}
	rng := rand.New(rand.NewSource(4))
	pick := func() float64 {
		if rng.Intn(8) == 0 {
			return rng.NormFloat64()
		}
		return edge[rng.Intn(len(edge))]
	}
	sawOverflow, sawFinite := false, false
	for trial := 0; trial < 3000; trial++ {
		m := []int{1, 2, 25, 129}[trial%4]
		n := 8 * (1 + rng.Intn(3))
		h := make([]float64, m)
		for i := range h {
			h[i] = pick()
		}
		x := make([]complex128, n+m-1)
		for i := range x {
			x[i] = complex(pick(), pick())
		}
		dst := make([]complex128, n)
		want := make([]complex128, n)
		finite := FIRReal(dst, x, h)
		firRealRef(want, x, h)
		for q := range dst {
			requireSameNaNClass(t, "re", real(dst[q]), real(want[q]))
			requireSameNaNClass(t, "im", imag(dst[q]), imag(want[q]))
		}
		if finite != allFinite(dst) {
			t.Fatalf("trial %d: reported finite=%v, outputs finite=%v", trial, finite, allFinite(dst))
		}
		sawOverflow = sawOverflow || !finite
		sawFinite = sawFinite || finite
	}
	if !sawOverflow || !sawFinite {
		t.Fatalf("edge inputs never exercised both flag values (overflow %v, finite %v)", sawOverflow, sawFinite)
	}
}

func TestPreambleCorrMatchesDefinition(t *testing.T) {
	requireAVX2Kernels(t)
	rng := rand.New(rand.NewSource(2))
	for _, tc := range []struct{ npos, m int }{
		{8, 1}, {8, 3}, {16, 64}, {24, 5}, {40, 1024},
	} {
		tpl := randComplexes(rng, tc.m)
		x := randComplexes(rng, tc.npos-1+tc.m)
		acc := make([]complex128, tc.npos)
		PreambleCorr(acc, x, tpl)
		for p := 0; p < tc.npos; p++ {
			var accR, accI float64
			for j, c := range tpl {
				xv := x[p+j]
				xr, xi, cr, ci := real(xv), imag(xv), real(c), imag(c)
				accR += xr*cr - xi*ci
				accI += xr*ci + xi*cr
			}
			requireBits(t, "accR", real(acc[p]), accR)
			requireBits(t, "accI", imag(acc[p]), accI)
		}
	}
}
