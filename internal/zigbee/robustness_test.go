package zigbee

import (
	"math/rand"
	"testing"

	"repro/internal/signal"
)

func TestReceiveTruncatedMidFrame(t *testing.T) {
	sig, err := NewTransmitter().Transmit(make([]byte, 80))
	if err != nil {
		t.Fatal(err)
	}
	cut := (PreambleSymbols + 6) * SymbolSamples // inside the body
	cap := signal.New(SampleRate, cut+100)
	copy(cap.Samples[100:], sig.Samples[:cut])
	if _, err := NewReceiver().Receive(cap); err == nil {
		t.Fatal("truncated frame decoded")
	}
}

func TestReceiveCorruptedSFD(t *testing.T) {
	sig, err := NewTransmitter().Transmit([]byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	// Replace the SFD symbols with noise: the receiver must give up.
	rng := rand.New(rand.NewSource(3))
	lo := PreambleSymbols * SymbolSamples
	for i := lo; i < lo+2*SymbolSamples; i++ {
		sig.Samples[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	cap := signal.New(SampleRate, len(sig.Samples)+200)
	copy(cap.Samples[100:], sig.Samples)
	if _, err := NewReceiver().Receive(cap); err == nil {
		t.Fatal("frame with destroyed SFD decoded")
	}
}

func TestCorruptedPayloadFailsFCS(t *testing.T) {
	sig, err := NewTransmitter().Transmit([]byte("integrity matters here"))
	if err != nil {
		t.Fatal(err)
	}
	// Flip the phase of a few mid-body symbols (a fake tag!) so symbols
	// decode differently; the FCS must catch it.
	lo := (PreambleSymbols + 2 + 2 + 4) * SymbolSamples
	for i := lo; i < lo+8*SymbolSamples && i < len(sig.Samples); i++ {
		sig.Samples[i] = -sig.Samples[i]
	}
	cap := signal.New(SampleRate, len(sig.Samples)+200)
	copy(cap.Samples[100:], sig.Samples)
	f, err := NewReceiver().Receive(cap)
	if err != nil {
		t.Skip("frame lost entirely; acceptable")
	}
	if f.FCSOK {
		t.Fatal("corrupted payload passed FCS")
	}
}

func TestDecodeUnderCFO(t *testing.T) {
	p := []byte("zigbee rides a 15 kHz offset")
	sig, err := NewTransmitter().Transmit(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfo := range []float64{5e3, -10e3, 15e3} {
		cap := signal.New(SampleRate, len(sig.Samples)+300)
		copy(cap.Samples[100:], sig.Samples)
		cap.FrequencyShift(cfo)
		f, err := NewReceiver().Receive(cap)
		if err != nil {
			t.Fatalf("cfo %g: %v", cfo, err)
		}
		if !f.FCSOK || string(f.Payload) != string(p) {
			t.Fatalf("cfo %g: payload corrupted", cfo)
		}
	}
}
