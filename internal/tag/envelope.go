package tag

import (
	"math"

	"repro/internal/signal"
)

// EnvelopeDetector models the LT5534-based packet timer: it rectifies the
// incoming waveform, low-pass filters it, compares against a reference and
// reports packet edges with the detector's latency. It consumes < 1 µW and
// is the only receive capability a FreeRider tag has.
type EnvelopeDetector struct {
	// ReferenceDBm is the comparator threshold in dBm (the paper tunes the
	// reference voltage, 1.8 V nominal, to trade sensitivity for noise
	// rejection; we express it directly as an equivalent input power).
	ReferenceDBm float64
	// SmoothingTime is the RC constant of the detector output, seconds.
	SmoothingTime float64
}

// NewEnvelopeDetector returns a detector with the defaults used by the
// prototype.
func NewEnvelopeDetector() *EnvelopeDetector {
	return &EnvelopeDetector{ReferenceDBm: -60, SmoothingTime: 1e-6}
}

// Pulse is one detected on-air burst.
type Pulse struct {
	Duration float64 // seconds
}

// Detect returns the pulses present in a capture seen at the tag antenna.
func (e *EnvelopeDetector) Detect(s *signal.Signal) []Pulse {
	if len(s.Samples) == 0 {
		return nil
	}
	threshold := signal.DBToPower(e.ReferenceDBm)
	alpha := 1.0
	if e.SmoothingTime > 0 {
		alpha = 1 - math.Exp(-1/(e.SmoothingTime*s.Rate))
	}
	var pulses []Pulse
	env := 0.0
	on := false
	var onStart int
	for i, v := range s.Samples {
		p := real(v)*real(v) + imag(v)*imag(v)
		env += alpha * (p - env)
		if !on && env >= threshold {
			on = true
			onStart = i
		} else if on && env < threshold/2 { // hysteresis
			on = false
			pulses = append(pulses, Pulse{Duration: float64(i-onStart) / s.Rate})
		}
	}
	if on {
		pulses = append(pulses, Pulse{Duration: float64(len(s.Samples)-onStart) / s.Rate})
	}
	return pulses
}
