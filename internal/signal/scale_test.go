package signal

import (
	"math"
	"math/rand"
	"testing"
)

// TestFrequencyShiftMatchesRotorLoop holds FrequencyShift to the CFO
// rotor: FrequencyShift(df) is Derotate by −df bit for bit, in every
// dispatch mode, across the 1024-sample block boundaries and for random
// offsets of either sign, ±0 included.
func TestFrequencyShiftMatchesRotorLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	dfs := []float64{0, math.Copysign(0, -1), 1, -1, 2.5e6, -2.5e6, 1e-300}
	for range 8 {
		dfs = append(dfs, (rng.Float64()-0.5)*20e6)
	}
	for _, n := range []int{0, 1, 1023, 1024, 1025, 4097} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		for _, df := range dfs {
			eachDispatchMode(t, func(mode string) {
				want := make([]complex128, n)
				Derotate(want, x, 0, -df, 20e6)
				s := &Signal{Rate: 20e6, Samples: append([]complex128(nil), x...)}
				s.FrequencyShift(df)
				requireSameSamples(t, mode+" FrequencyShift", s.Samples, want)
			})
		}
	}
}

// scaleCases are sample sets for the scale differentials: normals, and
// normals salted with signed zeros, infinities, NaN and subnormals.
func scaleCases(rng *rand.Rand, n int) [][]complex128 {
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -5e-324, math.MaxFloat64}
	plain, salted := make([]complex128, n), make([]complex128, n)
	for i := range plain {
		plain[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		salted[i] = plain[i]
		if rng.Intn(3) == 0 {
			salted[i] = complex(specials[rng.Intn(len(specials))], specials[rng.Intn(len(specials))])
		}
	}
	return [][]complex128{plain, salted}
}

// TestScaleDispatchBitIdentity holds ScaleInto (in place and into a
// separate, offset buffer) and ScalePower to their Go loops in every
// dispatch mode, for real and complex gains.
func TestScaleDispatchBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	gains := []complex128{complex(SSBShiftGain, 0), complex(-1, 0), complex(0.6, -0.8), complex(math.Copysign(0, -1), 0), complex(math.Inf(1), 0)}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 41440} {
		for _, x := range scaleCases(rng, n) {
			for _, g := range gains {
				want := make([]complex128, n)
				var wantP float64
				for i, v := range x {
					want[i] = v * g
					wantP += real(want[i])*real(want[i]) + imag(want[i])*imag(want[i])
				}
				if n > 0 {
					wantP /= float64(n)
				}
				eachDispatchMode(t, func(mode string) {
					dst := make([]complex128, n+3)
					ScaleInto(dst[3:], x, g)
					requireSameSamples(t, mode+" ScaleInto", dst[3:], want)
					s := &Signal{Samples: append([]complex128(nil), x...)}
					requireSameSamples(t, mode+" Scale", s.Scale(g).Samples, want)
					s.Samples = append(s.Samples[:0], x...)
					if p := s.ScalePower(g); !sameFloat(p, wantP) {
						t.Fatalf("%s: n=%d ScalePower = %v, want %v", mode, n, p, wantP)
					}
					requireSameSamples(t, mode+" ScalePower", s.Samples, want)
				})
			}
		}
	}
}
