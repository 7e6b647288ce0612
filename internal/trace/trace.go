// Package trace models the ambient 2.4 GHz traffic the paper measured on
// channel 6 in a lecture hall (Fig 3: 30 million packet durations with a
// bimodal distribution — ~78% of packets shorter than 500 µs and ~18%
// between 1.5 ms and 2.7 ms). The PLM downlink's robustness argument rests
// on how rarely ambient packets alias to the tag's L0/L1 pulse lengths;
// this package regenerates that distribution and the aliasing probability.
package trace

import (
	"fmt"
	"math/rand"
)

// Mixture components of the Fig 3 duration distribution.
type component struct {
	weight   float64
	min, max float64 // uniform over [min, max), seconds
}

// AmbientModel samples packet durations from the Fig 3 mixture.
type AmbientModel struct {
	components []component
	rng        *rand.Rand
}

// NewAmbientModel returns the lecture-hall model with a deterministic RNG.
// Mixture: 78% short data/ACK packets (40–500 µs), 18% long aggregated
// packets (1.5–2.7 ms), 4% mid-length packets (500 µs–1.5 ms).
func NewAmbientModel(seed int64) *AmbientModel {
	return &AmbientModel{
		components: []component{
			{0.78, 40e-6, 500e-6},
			{0.04, 500e-6, 1500e-6},
			{0.18, 1500e-6, 2700e-6},
		},
		rng: rand.New(rand.NewSource(seed)),
	}
}

// Sample draws one packet duration in seconds.
func (m *AmbientModel) Sample() float64 {
	u := m.rng.Float64()
	for _, c := range m.components {
		if u < c.weight {
			return c.min + m.rng.Float64()*(c.max-c.min)
		}
		u -= c.weight
	}
	last := m.components[len(m.components)-1]
	return last.min + m.rng.Float64()*(last.max-last.min)
}

// Samples draws n durations.
func (m *AmbientModel) Samples(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = m.Sample()
	}
	return out
}

// AliasProbability estimates, over n samples, the probability that an
// ambient packet's duration falls within ±bound of any of the given pulse
// lengths — i.e. the chance ambient traffic is mistaken for a PLM symbol.
// The paper reports ≈0.03% for a 25 µs bound.
func (m *AmbientModel) AliasProbability(pulses []float64, bound float64, n int) (float64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("trace: sample count %d must be positive", n)
	}
	if bound < 0 {
		return 0, fmt.Errorf("trace: negative bound %g", bound)
	}
	hits := 0
	for i := 0; i < n; i++ {
		d := m.Sample()
		for _, p := range pulses {
			if d >= p-bound && d <= p+bound {
				hits++
				break
			}
		}
	}
	return float64(hits) / float64(n), nil
}
