package tag

import (
	"math"

	"repro/internal/signal"
)

// The LT5534-based envelope detector's settings on the prototype.
const (
	// EnvelopeReferenceDBm is the comparator threshold as an equivalent
	// input power (the paper tunes the reference voltage, 1.8 V nominal,
	// to trade sensitivity for noise rejection).
	EnvelopeReferenceDBm = -60
	// envelopeSmoothing is the RC constant of the detector output, seconds.
	envelopeSmoothing = 1e-6
)

// Pulse is one detected on-air burst.
type Pulse struct {
	Duration float64 // seconds
}

// DetectEnvelope models the tag's packet timer, the only receive
// capability a FreeRider tag has (it consumes < 1 µW): it rectifies a
// capture seen at the tag antenna, low-pass filters it, compares it with
// EnvelopeReferenceDBm and returns the bursts it finds.
func DetectEnvelope(s *signal.Signal) []Pulse {
	if len(s.Samples) == 0 {
		return nil
	}
	threshold := signal.DBToPower(EnvelopeReferenceDBm)
	alpha := 1 - math.Exp(-1/(envelopeSmoothing*s.Rate))
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
