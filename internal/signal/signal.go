// Package signal provides the complex-baseband substrate every PHY in this
// repository is built on: a sampled Signal type, FFT/IFFT, FIR filtering,
// mixing and frequency shifting, resampling, power measurement in dBm, and
// deterministic AWGN injection.
//
// Conventions: signals are complex128 sample slices at an explicit sample
// rate in Hz. Power is referenced so that a unit-amplitude complex tone has
// mean square 1.0 == 0 dB; dBm values attach to that scale through an
// explicit carrier power assignment in the channel model.
package signal

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Signal is a block of complex baseband samples at a fixed sample rate.
type Signal struct {
	Rate    float64 // sample rate in Hz
	Samples []complex128
}

// New returns a zeroed signal of n samples at the given rate.
func New(rate float64, n int) *Signal {
	return &Signal{Rate: rate, Samples: make([]complex128, n)}
}

// Duration returns the time span of the signal in seconds.
func (s *Signal) Duration() float64 {
	if s.Rate == 0 {
		return 0
	}
	return float64(len(s.Samples)) / s.Rate
}

// Clone returns a deep copy of the signal.
func (s *Signal) Clone() *Signal {
	out := New(s.Rate, len(s.Samples))
	copy(out.Samples, s.Samples)
	return out
}

// Scale multiplies every sample by the (possibly complex) gain g in place
// and returns the receiver for chaining.
func (s *Signal) Scale(g complex128) *Signal {
	for i := range s.Samples {
		s.Samples[i] *= g
	}
	return s
}

// Add sums other into the receiver starting at sample offset off. Samples
// of other that fall outside the receiver are dropped. Sample rates must
// match.
func (s *Signal) Add(other *Signal, off int) error {
	if s.Rate != other.Rate {
		return fmt.Errorf("signal: rate mismatch %g vs %g", s.Rate, other.Rate)
	}
	for i, v := range other.Samples {
		j := off + i
		if j < 0 || j >= len(s.Samples) {
			continue
		}
		s.Samples[j] += v
	}
	return nil
}

// FrequencyShift mixes the signal with exp(j·2π·df·t) in place, moving its
// spectrum up by df Hz.
func (s *Signal) FrequencyShift(df float64) *Signal {
	if df == 0 {
		return s
	}
	// Incremental rotation avoids a sin/cos per sample.
	step := cmplx.Exp(complex(0, 2*math.Pi*df/s.Rate))
	rot := complex(1, 0)
	for i := range s.Samples {
		s.Samples[i] *= rot
		rot *= step
		if i&0x3FF == 0x3FF { // renormalise periodically against drift
			rot /= complex(cmplx.Abs(rot), 0)
		}
	}
	return s
}

// PhaseShift rotates every sample by theta radians in place.
func (s *Signal) PhaseShift(theta float64) *Signal {
	r := cmplx.Exp(complex(0, theta))
	return s.Scale(r)
}

// DelaySamples prepends n zero samples (a pure time delay of n/Rate).
func (s *Signal) DelaySamples(n int) *Signal {
	if n <= 0 {
		return s
	}
	s.Samples = append(make([]complex128, n), s.Samples...)
	return s
}

// MeanPower returns the mean of |x|^2 over the signal, 0 for empty input.
func (s *Signal) MeanPower() float64 {
	if len(s.Samples) == 0 {
		return 0
	}
	var p float64
	for _, v := range s.Samples {
		p += real(v)*real(v) + imag(v)*imag(v)
	}
	return p / float64(len(s.Samples))
}

// PowerDB converts a linear power ratio to dB; PowerDB(0) is -inf.
func PowerDB(p float64) float64 {
	return 10 * math.Log10(p)
}

// DBToPower converts dB to a linear power ratio.
func DBToPower(db float64) float64 {
	return math.Pow(10, db/10)
}

// AmplitudeForPowerDBm returns the per-sample amplitude that gives the
// requested mean power in dBm on the simulation's 1.0 == 0 dBm scale.
func AmplitudeForPowerDBm(dbm float64) float64 {
	return math.Sqrt(DBToPower(dbm))
}
