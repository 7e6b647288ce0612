package wifi

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/signal"
)

func TestReceiveTruncatedAfterPreamble(t *testing.T) {
	sig, err := NewTransmitter().Transmit(AppendFCS(make([]byte, 500)), Rates[6])
	if err != nil {
		t.Fatal(err)
	}
	// Cut the capture right after SIGNAL: the receiver must return an
	// error, not panic or fabricate data.
	cut := PreambleLen + 2*SymbolLen
	cap := &signal.Signal{Rate: SampleRate, Samples: sig.Samples[:cut]}
	padded := appendSilence(cap, 100, 0)
	if _, err := NewReceiver().Receive(padded); err == nil {
		t.Fatal("truncated capture decoded")
	}
}

func TestReceiveCorruptedSignalField(t *testing.T) {
	sig, err := NewTransmitter().Transmit(AppendFCS(make([]byte, 100)), Rates[6])
	if err != nil {
		t.Fatal(err)
	}
	// Obliterate the SIGNAL symbol with noise: rate/length unrecoverable.
	rng := rand.New(rand.NewSource(1))
	for i := PreambleLen; i < PreambleLen+SymbolLen; i++ {
		sig.Samples[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	cap := appendSilence(sig, 100, 100)
	if pkt, err := NewReceiver().Receive(cap); err == nil && pkt.FCSOK {
		t.Fatal("packet with destroyed SIGNAL decoded cleanly")
	}
}

func TestReceiveAllSkipsCorruptPackets(t *testing.T) {
	tx := NewTransmitter()
	good1, _ := tx.Transmit(AppendFCS([]byte("first")), Rates[6])
	bad, _ := tx.Transmit(AppendFCS([]byte("middle")), Rates[6])
	good2, _ := tx.Transmit(AppendFCS([]byte("third")), Rates[6])

	// Corrupt the middle packet's SIGNAL symbol.
	rng := rand.New(rand.NewSource(2))
	for i := PreambleLen; i < PreambleLen+SymbolLen; i++ {
		bad.Samples[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}

	cap := signal.New(SampleRate, len(good1.Samples)+len(bad.Samples)+len(good2.Samples)+3000)
	pos := 200
	for _, s := range []*signal.Signal{good1, bad, good2} {
		copy(cap.Samples[pos:], s.Samples)
		pos += len(s.Samples) + 800
	}
	pkts := NewReceiver().ReceiveAll(cap)
	okCount := 0
	for _, p := range pkts {
		if p.FCSOK {
			okCount++
		}
	}
	if okCount != 2 {
		t.Fatalf("decoded %d clean packets, want 2 around the corrupt one", okCount)
	}
}

func TestDemapRejectsUnknownModulation(t *testing.T) {
	if _, err := demapPointInto(nil, 0, Modulation(9)); err == nil {
		t.Error("unknown modulation accepted")
	}
	if _, err := Map([]byte{0}, Modulation(9)); err == nil {
		t.Error("unknown modulation accepted in Map")
	}
}

func TestModulationAndCodingStrings(t *testing.T) {
	for _, m := range []Modulation{BPSK, QPSK, QAM16, QAM64} {
		if m.String() == "" {
			t.Error("empty modulation name")
		}
	}
	for _, c := range []CodingRate{Rate1_2, Rate2_3, Rate3_4} {
		if c.String() == "" {
			t.Error("empty coding rate name")
		}
	}
}

// TestTransmitSpectralContainment: the OFDM TX must concentrate its power
// in the 52 used subcarriers (±8.1 MHz); energy near the band edge must be
// far down, which is what lets the backscatter receiver sit one channel
// away (§2.3.4).
func TestTransmitSpectralContainment(t *testing.T) {
	sig, err := NewTransmitter().Transmit(AppendFCS(make([]byte, 600)), Rates[6])
	if err != nil {
		t.Fatal(err)
	}
	const nfft = 4096
	spec, err := sig.Spectrum(nfft)
	if err != nil {
		t.Fatal(err)
	}
	binHz := SampleRate / nfft
	var inBand, outBand float64
	var nIn, nOut int
	for i, p := range spec {
		f := float64(i) * binHz
		if f > SampleRate/2 {
			f -= SampleRate
		}
		switch {
		case f > -8.2e6 && f < 8.2e6:
			inBand += p
			nIn++
		case f < -9.5e6 || f > 9.5e6:
			outBand += p
			nOut++
		}
	}
	inDensity := inBand / float64(nIn)
	outDensity := outBand / float64(nOut)
	ratio := 10 * math.Log10(inDensity/outDensity)
	if ratio < 15 {
		t.Fatalf("in-band/out-of-band density ratio %.1f dB, want >= 15", ratio)
	}
}
