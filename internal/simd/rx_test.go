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
		FIRReal(dst, x, h)
		for q := range dst {
			var want complex128
			for t := 0; t < tc.m; t++ {
				want += x[q+t] * complex(h[tc.m-1-t], 0)
			}
			requireBits(t, "re", real(dst[q]), real(want))
			requireBits(t, "im", imag(dst[q]), imag(want))
		}
	}
}

func TestPreambleCorrMatchesDefinition(t *testing.T) {
	requireAVX2Kernels(t)
	rng := rand.New(rand.NewSource(2))
	for _, tc := range []struct{ npos, stride, seg, segs int }{
		{8, 8, 1, 1}, {8, 11, 3, 5}, {16, 16, 64, 16}, {24, 40, 5, 2},
	} {
		tpl := randComplexes(rng, tc.seg*tc.segs)
		x := randComplexes(rng, tc.npos-1+len(tpl))
		acc := make([]complex128, (tc.segs-1)*tc.stride+tc.npos)
		pow := make([]float64, tc.npos)
		PreambleCorr(acc, tc.stride, pow, x, tpl, tc.seg)
		for p := 0; p < tc.npos; p++ {
			var pw float64
			for s := 0; s < tc.segs; s++ {
				var accR, accI float64
				for j := 0; j < tc.seg; j++ {
					xv, c := x[p+s*tc.seg+j], tpl[s*tc.seg+j]
					xr, xi, cr, ci := real(xv), imag(xv), real(c), imag(c)
					accR += xr*cr - xi*ci
					accI += xr*ci + xi*cr
					pw += xr*xr + xi*xi
				}
				requireBits(t, "accR", real(acc[s*tc.stride+p]), accR)
				requireBits(t, "accI", imag(acc[s*tc.stride+p]), accI)
			}
			requireBits(t, "pow", pow[p], pw)
		}
	}
}
