package signal

import "math"

// SquareWaveMix models an RF switch toggled at frequency f Hz acting on the
// signal: multiplication by a ±1 square wave with 50% duty cycle and initial
// phase phase (radians of the fundamental). This is how a backscatter tag
// shifts a reflected signal in frequency: the square wave's Fourier series
//
//	sq(t) = (4/π) Σ_{k odd} sin(2πkft)/k
//
// places images at ±f (amplitude 2/π each), ±3f (amplitude 2/(3π)), and so
// on. The double-sideband structure and odd harmonics the paper discusses in
// §3.2.3 fall out of this model directly.
func (s *Signal) SquareWaveMix(f, phase float64) *Signal {
	w := 2 * math.Pi * f / s.Rate
	for i := range s.Samples {
		arg := w*float64(i) + phase
		// Square wave from the sign of the sine.
		if math.Sin(arg) >= 0 {
			// +1: leave the sample.
		} else {
			s.Samples[i] = -s.Samples[i]
		}
	}
	return s
}

// SSBShiftGain is the amplitude of the fundamental image produced by square-
// wave mixing (2/π ≈ 0.637, i.e. −3.92 dB). Equivalent-baseband simulations
// that model the shift as a complex-exponential mix apply this gain so link
// budgets match the switch-based tag.
const SSBShiftGain = 2 / math.Pi
