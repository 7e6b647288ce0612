package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/signal"
	"repro/internal/tag"
	"repro/internal/wifi"
)

// amplitudeTranslator scales the reflected amplitude per window using two
// levels of the impedance bank (§2.1: the tag "switches across multiple
// impedances to fine tune the amplitude"). The paper's Figure 2 argument —
// and TestAmplitudeModulationFigure2 — show why this dimension is unusable
// on OFDM: the frequency-agnostic amplitude change lands on every
// subcarrier at once and turns valid QAM codewords into invalid ones. No
// tag therefore ships it; it lives here, with the test that shows why.
type amplitudeTranslator struct {
	// DataStart, SymbolPeriod, SymbolsPerBit define the modulation grid as
	// in tag.PhaseTranslator.
	DataStart     float64
	SymbolPeriod  float64
	SymbolsPerBit int
	// HighGamma and LowGamma are the |Γ| reflection magnitudes encoding
	// tag bits 0 and 1 respectively.
	HighGamma, LowGamma float64
	// Latency shifts the grid by the envelope detector delay.
	Latency float64
}

// Translate has tag.PhaseTranslator.Translate's signature: a modified copy
// of exc and the number of tag bits embedded.
func (a *amplitudeTranslator) Translate(exc *signal.Signal, tagBits []byte) (*signal.Signal, int, error) {
	if err := a.validate(); err != nil {
		return nil, 0, err
	}
	out := exc.Clone()
	// Bit-0 regions (and everything outside the grid) reflect at HighGamma.
	out.Scale(complex(a.HighGamma, 0))
	blockSamples := int(math.Round(a.SymbolPeriod * float64(a.SymbolsPerBit) * exc.Rate))
	start := int(math.Round((a.DataStart + a.Latency) * exc.Rate))
	ratio := complex(a.LowGamma/a.HighGamma, 0)
	used := 0
	for i := 0; ; i++ {
		lo := start + i*blockSamples
		hi := lo + blockSamples
		if hi > len(out.Samples) || used >= len(tagBits) {
			break
		}
		bit := tagBits[used] & 1
		used++
		if bit == 0 {
			continue
		}
		for j := lo; j < hi; j++ {
			out.Samples[j] *= ratio
		}
	}
	return out, used, nil
}

// Capacity has tag.PhaseTranslator.Capacity's signature.
func (a *amplitudeTranslator) Capacity(packetDuration float64) int {
	if err := a.validate(); err != nil {
		return 0
	}
	usable := packetDuration - a.DataStart - a.Latency
	if usable <= 0 {
		return 0
	}
	return int(usable / (a.SymbolPeriod * float64(a.SymbolsPerBit)))
}

func (a *amplitudeTranslator) validate() error {
	if a.SymbolPeriod <= 0 || a.SymbolsPerBit <= 0 {
		return fmt.Errorf("amplitude translator: invalid timing")
	}
	if a.HighGamma <= 0 || a.LowGamma <= 0 || a.LowGamma >= a.HighGamma {
		return fmt.Errorf("amplitude translator: levels need 0 < low < high, got %g/%g", a.LowGamma, a.HighGamma)
	}
	return nil
}

// TestAmplitudeModulationFigure2 reproduces the paper's Figure 2 argument:
// a tag's amplitude modification is frequency agnostic, so on OFDM it
// scales every subcarrier at once — and while a BPSK subcarrier survives
// (the sign is intact), QAM subcarriers land between constellation rings
// and demap to *invalid codewords*, corrupting the packet. This is why the
// WiFi translator only touches phase (§2.2.2, §2.3.1).
func TestAmplitudeModulationFigure2(t *testing.T) {
	run := func(mbps int) (fcsOK bool) {
		tx := wifi.NewTransmitter()
		psdu := wifi.AppendFCS(make([]byte, 400))
		exc, err := tx.Transmit(psdu, wifi.Rates[mbps])
		if err != nil {
			t.Fatal(err)
		}
		at := &amplitudeTranslator{
			DataStart:     float64(wifi.PreambleLen)/wifi.SampleRate + 2*wifi.SymbolTime,
			SymbolPeriod:  wifi.SymbolTime,
			SymbolsPerBit: 4,
			HighGamma:     1.0,
			LowGamma:      0.55, // between the 16-QAM rings
			Latency:       tag.EnvelopeLatency,
		}
		tagBits := make([]byte, 40)
		for i := range tagBits {
			tagBits[i] = byte(i) & 1
		}
		mod, _, err := at.Translate(exc, tagBits)
		if err != nil {
			t.Fatal(err)
		}
		cap := mod.Clone()
		cap.DelaySamples(200)
		rx := wifi.NewReceiver()
		rx.DetectionThreshold = 0.01
		pkt, err := rx.Receive(cap)
		if err != nil {
			return false
		}
		return pkt.FCSOK
	}

	// BPSK (6 Mbps): amplitude scaling leaves the sign — the only thing the
	// demapper reads — untouched, so the packet still decodes.
	if !run(6) {
		t.Fatal("BPSK packet corrupted by amplitude scaling; signs should survive")
	}
	// 16-QAM (24 Mbps): the scaled constellation points are not valid
	// codewords (Figure 2's subcarrier m) and the packet dies.
	if run(24) {
		t.Fatal("16-QAM packet survived amplitude modulation; Figure 2 says it must not")
	}
}

func TestAmplitudeTranslatorLevels(t *testing.T) {
	a := &amplitudeTranslator{
		SymbolPeriod:  10e-6,
		SymbolsPerBit: 1,
		HighGamma:     0.8,
		LowGamma:      0.4,
	}
	out, used, err := a.Translate(constSignal(1e6, 30), []byte{0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if used != 3 {
		t.Fatalf("used %d", used)
	}
	if real(out.Samples[5]) != 0.8 || real(out.Samples[15]) != 0.4 || real(out.Samples[25]) != 0.8 {
		t.Fatalf("levels wrong: %v %v %v", out.Samples[5], out.Samples[15], out.Samples[25])
	}
}

func TestAmplitudeTranslatorValidation(t *testing.T) {
	bad := &amplitudeTranslator{SymbolPeriod: 1e-6, SymbolsPerBit: 1, HighGamma: 0.4, LowGamma: 0.8}
	if _, _, err := bad.Translate(constSignal(1e6, 10), []byte{1}); err == nil {
		t.Error("low >= high accepted")
	}
	if bad.Capacity(1) != 0 {
		t.Error("invalid translator reported capacity")
	}
	good := &amplitudeTranslator{SymbolPeriod: 4e-6, SymbolsPerBit: 4, HighGamma: 1, LowGamma: 0.5, DataStart: 20e-6}
	if c := good.Capacity(180e-6); c != 10 {
		t.Fatalf("capacity %d, want 10", c)
	}
}

// constSignal is n unit samples at the given rate.
func constSignal(rate float64, n int) *signal.Signal {
	s := signal.New(rate, n)
	for i := range s.Samples {
		s.Samples[i] = 1
	}
	return s
}
