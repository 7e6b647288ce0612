package simd

import (
	"math"
	"math/rand"
	"testing"
)

// The noise kernels' caller (signal.Noise) fuzzes them against its Go
// twins with math/rand's real stream and tables. These tests check the
// kernels against their documented formulas; the ziggurat ones with
// random tables, bounds at and above 2³¹ included, so the unsigned
// acceptance test and the |−2³¹| = 2³¹ edge are exercised where the
// ziggurat's own tables never reach, and flags land in every bit of a
// word.

func zigJ(u uint64) (j int32, abs uint32) {
	j = int32(u >> 31)
	abs = uint32(j)
	if j < 0 {
		abs = uint32(-j)
	}
	return j, abs
}

func TestZigRejectMatchesDefinition(t *testing.T) {
	requireAVX2Kernels(t)
	rng := rand.New(rand.NewSource(3))
	var kn [128]uint32
	for trial := range 200 {
		for i := range kn {
			kn[i] = rng.Uint32()
			if trial%2 == 0 {
				kn[i] |= 1 << 31 // mostly accepted
			}
		}
		kn[rng.Intn(128)] = 1 << 31
		words := 1 + rng.Intn(5)
		u := make([]uint64, 64*words)
		for i := range u {
			u[i] = rng.Uint64()
			if rng.Intn(16) == 0 {
				u[i] = 1 << 62 // j = −2³¹
			}
		}
		flags := make([]uint64, words)
		ZigReject(flags, u, &kn)
		for k, v := range u {
			j, abs := zigJ(v)
			want := abs >= kn[j&127]
			if got := flags[k/64]>>(k%64)&1 == 1; got != want {
				t.Fatalf("trial %d: draw %d (j=%d, kn=%#x) flagged %v, want %v", trial, k, j, kn[j&127], got, want)
			}
		}
	}
}

func TestNormAddMatchesDefinition(t *testing.T) {
	requireAVX2Kernels(t)
	rng := rand.New(rand.NewSource(4))
	var wn [128]float32
	for range 200 {
		for i := range wn {
			wn[i] = float32(rng.NormFloat64())
		}
		n := rng.Intn(40)
		u := make([]uint64, 2*n+rng.Intn(3))
		for i := range u {
			u[i] = rng.Uint64()
		}
		sigma := math.Abs(rng.NormFloat64())
		x := randComplexes(rng, n)
		want := append([]complex128(nil), x...)
		for q := range want {
			j0, _ := zigJ(u[2*q])
			j1, _ := zigJ(u[2*q+1])
			re := float64(j0) * float64(wn[j0&127])
			im := float64(j1) * float64(wn[j1&127])
			want[q] += complex(re*sigma, im*sigma)
		}
		NormAdd(x, u, &wn, sigma)
		for q := range want {
			requireBits(t, "re", real(x[q]), real(want[q]))
			requireBits(t, "im", imag(x[q]), imag(want[q]))
		}
	}
}

func TestLagFillMatchesDefinition(t *testing.T) {
	requireAVX2Kernels(t)
	rng := rand.New(rand.NewSource(11))
	for _, blocks := range []int{1, 2, 128} {
		y := make([]uint64, FibLong+16*blocks)
		for i := range FibLong {
			y[i] = rng.Uint64()
		}
		want := append([]uint64(nil), y...)
		for k := FibLong; k < len(want); k++ {
			want[k] = want[k-FibLong] + want[k-FibShort]
		}
		LagFill(y)
		for k := range want {
			if y[k] != want[k] {
				t.Fatalf("%d blocks: y[%d] = %#x, want %#x", blocks, k, y[k], want[k])
			}
		}
	}
}

// packRef is Pack's documented formula: the draws drop leaves clear, in
// order.
func packRef(u, drop []uint64) []uint64 {
	var kept []uint64
	for i, v := range u {
		if drop[i/64]>>(i%64)&1 == 0 {
			kept = append(kept, v)
		}
	}
	return kept
}

// TestPackMatchesDefinition runs Pack over drop masks from empty to
// full (every lane pattern of a pass appears), lengths around the
// 8-value pass and the 64-value word, starts off the 32-byte grid, in
// place and into a separate buffer, and checks that nothing past len(u)
// is written.
func TestPackMatchesDefinition(t *testing.T) {
	requireAVX2Kernels(t)
	rng := rand.New(rand.NewSource(12))
	for trial := range 400 {
		n := rng.Intn(200)
		if trial%50 == 0 {
			n = 4096 + rng.Intn(5)
		}
		density := []float64{0, 0.03, 0.5, 0.97, 1}[trial%5]
		drop := make([]uint64, (n+63)/64)
		for i := range n {
			if rng.Float64() < density {
				drop[i/64] |= 1 << (i % 64)
			}
		}
		off := rng.Intn(4)
		buf := make([]uint64, off+n+1)
		for i := range buf {
			buf[i] = rng.Uint64()
		}
		u := buf[off : off+n]
		want := packRef(u, drop)

		dst := make([]uint64, n+2)
		dst[n], dst[n+1] = 7, 7
		k := Pack(dst[:n], u, drop)
		if k != len(want) {
			t.Fatalf("trial %d: Pack kept %d of %d draws, want %d", trial, k, n, len(want))
		}
		for i, v := range want {
			if dst[i] != v {
				t.Fatalf("trial %d: dst[%d] = %#x, want %#x", trial, i, dst[i], v)
			}
		}
		if dst[n] != 7 || dst[n+1] != 7 {
			t.Fatalf("trial %d: Pack wrote past len(u)", trial)
		}

		sentinel := buf[off+n]
		if k := Pack(u, u, drop); k != len(want) {
			t.Fatalf("trial %d: in place kept %d, want %d", trial, k, len(want))
		}
		for i, v := range want {
			if u[i] != v {
				t.Fatalf("trial %d: in place u[%d] = %#x, want %#x", trial, i, u[i], v)
			}
		}
		if buf[off+n] != sentinel {
			t.Fatalf("trial %d: in-place Pack wrote past len(u)", trial)
		}
	}
}
