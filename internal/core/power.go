package core

// TagPowerProfile itemises the tag's power draw in microwatts (§3.3: the
// TSMC 65 nm simulation reports ~30 µW total, dominated by the 20 MHz
// ring-oscillator clock used for frequency shifting).
type TagPowerProfile struct {
	ClockUW  float64 // ring oscillator for the channel-shift toggle
	SwitchUW float64 // ADG902 RF switch drive
	LogicUW  float64 // codeword-translation control logic
}

// TotalUW returns the summed power draw.
func (p TagPowerProfile) TotalUW() float64 { return p.ClockUW + p.SwitchUW + p.LogicUW }

// TagPower returns the §3.3 power budget for a radio's translator with the
// given channel-shift toggle frequency. The ring-oscillator draw scales
// linearly with toggle frequency from the paper's 19 µW @ 20 MHz anchor
// ([27]'s ring oscillator); the control logic draw depends on translator
// complexity (1–3 µW).
func TagPower(r Radio, shiftHz float64) TagPowerProfile {
	const clockPerMHz = 19.0 / 20.0 // µW per MHz of toggle frequency
	p := TagPowerProfile{
		ClockUW:  clockPerMHz * shiftHz / 1e6,
		SwitchUW: 12,
	}
	switch r {
	case ZigBee:
		p.LogicUW = 2
	case Bluetooth:
		p.LogicUW = 1 // a single extra toggle rate
	default:
		p.LogicUW = 3 // WiFi: per-OFDM-symbol phase sequencing
	}
	return p
}
