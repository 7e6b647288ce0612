package signal

import (
	"math"
	"math/rand"
	"testing"
)

// TestRandSourceMatchesMathRand pins RandSource to math/rand's source:
// the first 2000 Uint64 and Int63 outputs after Seed, for seeds at the
// edges of the seeding arithmetic (0 and the multiples of 2³¹−1, which
// math/rand replaces with 89482311; negatives, which it wraps; the
// extremes of int64) and for random ones, on a fresh and a re-seeded
// source.
func TestRandSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 2, 89482311, lehmerMod, -lehmerMod, 2 * lehmerMod, lehmerMod - 1, lehmerMod + 1,
		math.MaxInt64, math.MinInt64, math.MinInt64 + 1, 1 << 31, -(1 << 31)}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		seeds = append(seeds, int64(rng.Uint64()))
	}
	reused := newRandSource(12345)
	for _, seed := range seeds {
		want := rand.NewSource(seed).(rand.Source64)
		fresh := newRandSource(seed)
		reused.Seed(seed)
		for k := 0; k < 2000; k++ {
			var w, f, r uint64
			if k%2 == 0 {
				w, f, r = want.Uint64(), fresh.Uint64(), reused.Uint64()
			} else {
				w, f, r = uint64(want.Int63()), uint64(fresh.Int63()), uint64(reused.Int63())
			}
			if f != w || r != w {
				t.Fatalf("seed %d output %d: math/rand %#x, fresh %#x, re-seeded %#x", seed, k, w, f, r)
			}
		}
	}
}
