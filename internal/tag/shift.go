package tag

import (
	"fmt"

	"repro/internal/signal"
)

// ShiftMode selects how the channel-shift mixer is simulated.
type ShiftMode int

const (
	// ShiftEquivalentBaseband models the RF switch's fundamental image as a
	// complex-exponential mix with 2/π amplitude (−3.9 dB). Valid whenever
	// the toggle frequency exceeds the simulation bandwidth, e.g. WiFi's
	// 20 MHz hop simulated at the receiver's 20 MS/s baseband. The mirror
	// image and harmonics land ≥ 20 MHz away, where the receiver's channel
	// selection would remove them (verified at wide band in the tests).
	ShiftEquivalentBaseband ShiftMode = iota
	// ShiftSquareWave multiplies by the true ±1 square wave, producing both
	// sidebands and all odd harmonics in-band. Required when the toggle
	// frequency is inside the simulated bandwidth (Bluetooth's 500 kHz
	// codeword toggle at 8 MS/s).
	ShiftSquareWave
)

// ChannelShifter moves the backscattered signal onto an adjacent channel by
// toggling the RF switch at OffsetHz (§2.3.4: WiFi tags shift 20+ MHz to
// channel 13; ZigBee/Bluetooth tags shift toward 2.48 GHz).
type ChannelShifter struct {
	OffsetHz float64
	Mode     ShiftMode
}

// Shift applies the channel shift to the waveform in place and returns
// the shifted waveform's mean power (Signal.MeanPower's value). In
// equivalent-baseband mode the output stays centred on the *new* channel
// (i.e. the shift itself is absorbed into the retuned receiver) and only
// the 2/π conversion gain is applied, with the power summed in the same
// pass; in square-wave mode the spectrum really moves within the
// simulated band.
func (c ChannelShifter) Shift(s *signal.Signal) (meanPower float64, err error) {
	switch c.Mode {
	case ShiftEquivalentBaseband:
		if c.OffsetHz < s.Rate/2 {
			return 0, fmt.Errorf("tag: equivalent-baseband shift needs offset %g >= half the sample rate %g", c.OffsetHz, s.Rate)
		}
		return s.ScalePower(complex(signal.SSBShiftGain, 0)), nil
	case ShiftSquareWave:
		s.SquareWaveMix(c.OffsetHz, 0)
		return s.MeanPower(), nil
	}
	return 0, fmt.Errorf("tag: unknown shift mode %d", c.Mode)
}
