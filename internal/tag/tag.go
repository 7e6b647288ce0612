// Package tag models the FreeRider tag: per-radio codeword translators
// (phase rotation for OFDM WiFi and OQPSK ZigBee, RF-switch frequency
// toggling for Bluetooth FSK), the channel frequency shifter that moves the
// backscattered signal onto an adjacent channel, the envelope detector that
// times incoming packets, and the §3.3 power model (~30 µW total).
//
// The tag never decodes the excitation signal — every behaviour here is
// implementable with an envelope detector, a ring oscillator and an RF
// switch, which is what keeps the paper's power budget in microwatts.
package tag

import (
	"fmt"
	"math"

	"repro/internal/signal"
)

// EnvelopeLatency is the measured delay between a packet's true start and
// the envelope detector's indication (§3.1: 0.35 µs for the LT5534).
const EnvelopeLatency = 0.35e-6

// PhaseTranslator rotates the reflected signal's phase in per-symbol
// blocks: Δθ for tag bit 1, 0 for tag bit 0 (eq. 4), or multi-level Δθ
// steps when BitsPerStep is 2 (eq. 5). It serves both OFDM WiFi and OQPSK
// ZigBee, which only differ in timing parameters.
type PhaseTranslator struct {
	// DataStart is the time offset (seconds) from packet start where
	// modulation may begin (preamble + headers are reflected unmodified so
	// the receiver's channel estimate absorbs the static tag path).
	DataStart float64
	// SymbolPeriod is the PHY symbol duration in seconds.
	SymbolPeriod float64
	// SymbolsPerBit is the redundancy: PHY symbols spanned by one tag bit
	// (4 OFDM symbols for WiFi per §3.2.1; N OQPSK symbols for ZigBee per
	// §3.2.2).
	SymbolsPerBit int
	// DeltaTheta is the phase step in radians (π for binary, π/2 for the
	// quaternary scheme of eq. 5).
	DeltaTheta float64
	// BitsPerStep is 1 for binary signalling, 2 for quaternary.
	BitsPerStep int
	// Latency shifts the modulation grid by the envelope detector delay.
	Latency float64
}

// Translate is TranslateInPlace on a copy of exc: it returns the
// backscattered baseband waveform (before the channel-shift mixer and
// reflection losses) and the number of tag bits embedded, which is short
// of len(tagBits) when the packet ends first.
func (p *PhaseTranslator) Translate(exc *signal.Signal, tagBits []byte) (*signal.Signal, int, error) {
	out := exc.Clone()
	used, err := p.TranslateInPlace(out, tagBits)
	if err != nil {
		return nil, 0, err
	}
	return out, used, nil
}

// TranslateInPlace rotates the phase blocks of s itself, for callers that
// own the excitation buffer and have no further use for the unmodified
// waveform. It returns the number of tag bits embedded.
func (p *PhaseTranslator) TranslateInPlace(s *signal.Signal, tagBits []byte) (int, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	blockSamples := int(math.Round(p.SymbolPeriod * float64(p.SymbolsPerBit) * s.Rate))
	start := int(math.Round((p.DataStart + p.Latency) * s.Rate))
	used := 0
	for i := 0; ; i++ {
		lo := start + i*blockSamples
		hi := lo + blockSamples
		if hi > len(s.Samples) || used >= len(tagBits) {
			break
		}
		var sym float64
		for b := 0; b < p.BitsPerStep && used < len(tagBits); b++ {
			sym = sym*2 + float64(tagBits[used]&1)
			used++
		}
		if sym == 0 {
			continue
		}
		rot := complex(math.Cos(p.DeltaTheta*sym), math.Sin(p.DeltaTheta*sym))
		signal.ScaleInto(s.Samples[lo:hi], s.Samples[lo:hi], rot)
	}
	return used, nil
}

// Capacity returns how many tag bits fit on one excitation packet of the
// given duration in seconds.
func (p *PhaseTranslator) Capacity(packetDuration float64) int {
	if err := p.validate(); err != nil {
		return 0
	}
	usable := packetDuration - p.DataStart - p.Latency
	if usable <= 0 {
		return 0
	}
	blocks := int(usable / (p.SymbolPeriod * float64(p.SymbolsPerBit)))
	return blocks * p.BitsPerStep
}

func (p *PhaseTranslator) validate() error {
	if p.SymbolPeriod <= 0 || p.SymbolsPerBit <= 0 {
		return fmt.Errorf("tag: invalid phase translator timing %g/%d", p.SymbolPeriod, p.SymbolsPerBit)
	}
	if p.BitsPerStep < 1 || p.BitsPerStep > 2 {
		return fmt.Errorf("tag: BitsPerStep %d outside {1,2}", p.BitsPerStep)
	}
	return nil
}

// FreqTranslator toggles the RF switch at ToggleHz during tag-bit-1 windows
// (eq. 6), translating one FSK codeword into the other. The toggle is a real
// ±1 square wave, so both sidebands are produced — the receiver's channel
// filter removes the mirror per eq. 10.
type FreqTranslator struct {
	// DataStart, BitPeriod and BitsPerTagBit define the modulation grid:
	// one tag bit spans BitsPerTagBit PHY bits of BitPeriod seconds each.
	DataStart     float64
	BitPeriod     float64
	BitsPerTagBit int
	// ToggleHz is the RF-switch toggle frequency Δf = |f1-f0|.
	ToggleHz float64
	// Latency shifts the grid by the envelope detector delay.
	Latency float64
}

// Translate is TranslateInPlace on a copy of exc: it returns the
// modified waveform (before the channel-shift mixer and reflection
// losses) and the number of tag bits embedded, which is short of
// len(tagBits) when the packet ends first.
func (f *FreqTranslator) Translate(exc *signal.Signal, tagBits []byte) (*signal.Signal, int, error) {
	out := exc.Clone()
	used, err := f.TranslateInPlace(out, tagBits)
	if err != nil {
		return nil, 0, err
	}
	return out, used, nil
}

// TranslateInPlace toggles the tag-bit-1 windows of s itself, for
// callers that own the excitation buffer and have no further use for
// the unmodified waveform. It returns the number of tag bits embedded.
func (f *FreqTranslator) TranslateInPlace(s *signal.Signal, tagBits []byte) (int, error) {
	if err := f.validate(); err != nil {
		return 0, err
	}
	blockSamples := int(math.Round(f.BitPeriod * float64(f.BitsPerTagBit) * s.Rate))
	start := int(math.Round((f.DataStart + f.Latency) * s.Rate))
	used := 0
	w := 2 * math.Pi * f.ToggleHz / s.Rate
	for i := 0; ; i++ {
		lo := start + i*blockSamples
		hi := lo + blockSamples
		if hi > len(s.Samples) || used >= len(tagBits) {
			break
		}
		bit := tagBits[used] & 1
		used++
		if bit == 0 {
			continue
		}
		for j := lo; j < hi; j++ {
			if math.Sin(w*float64(j)) < 0 {
				s.Samples[j] = -s.Samples[j]
			}
		}
	}
	return used, nil
}

// Capacity returns how many tag bits fit on one excitation packet of the
// given duration in seconds.
func (f *FreqTranslator) Capacity(packetDuration float64) int {
	if err := f.validate(); err != nil {
		return 0
	}
	usable := packetDuration - f.DataStart - f.Latency
	if usable <= 0 {
		return 0
	}
	return int(usable / (f.BitPeriod * float64(f.BitsPerTagBit)))
}

func (f *FreqTranslator) validate() error {
	if f.BitPeriod <= 0 || f.BitsPerTagBit <= 0 || f.ToggleHz <= 0 {
		return fmt.Errorf("tag: invalid freq translator parameters")
	}
	return nil
}
