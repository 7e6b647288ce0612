package plm

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/signal"
	"repro/internal/tag"
)

func TestSchemeValidate(t *testing.T) {
	if err := DefaultScheme().Validate(); err != nil {
		t.Fatal(err)
	}
	s := DefaultScheme()
	s.L1 = s.L0 + s.Bound // symbols too close
	if err := s.Validate(); err == nil {
		t.Error("overlapping symbols accepted")
	}
	s = DefaultScheme()
	s.Preamble = nil
	if err := s.Validate(); err == nil {
		t.Error("empty preamble accepted")
	}
	s = DefaultScheme()
	s.L0 = 0
	if err := s.Validate(); err == nil {
		t.Error("zero L0 accepted")
	}
}

func TestRateAround500bps(t *testing.T) {
	r := DefaultScheme().RateBps()
	if r < 400 || r > 650 {
		t.Fatalf("PLM rate %.0f bps, want ~500 (§2.4.2)", r)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		s := DefaultScheme()
		bits := make([]byte, len(raw))
		for i := range raw {
			bits[i] = raw[i] & 1
		}
		for i, d := range s.Encode(bits) {
			if b, ok := s.Classify(d); !ok || b != bits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClassifyBounds(t *testing.T) {
	s := DefaultScheme()
	if b, ok := s.Classify(s.L0 + s.Bound*0.9); !ok || b != 0 {
		t.Error("in-bound 0 pulse rejected")
	}
	if b, ok := s.Classify(s.L1 - s.Bound*0.9); !ok || b != 1 {
		t.Error("in-bound 1 pulse rejected")
	}
	if _, ok := s.Classify(s.L0 + 3*s.Bound); ok {
		t.Error("out-of-bound pulse classified")
	}
	if _, ok := s.Classify(2500e-6); ok {
		t.Error("ambient-length pulse classified")
	}
}

func TestDecodeDropsAmbient(t *testing.T) {
	s := DefaultScheme()
	rx, _ := NewTagReceiver(s)
	for _, d := range s.Encode(s.Preamble) {
		rx.Feed(d)
	}
	for _, d := range []float64{s.L0, 300e-6, s.L1, 2000e-6, s.L1} {
		rx.Feed(d)
	}
	got, ok := rx.Message(3)
	if !ok || !bytes.Equal(got, []byte{0, 1, 1}) {
		t.Fatalf("decoded %v (%v), want [0 1 1]", got, ok)
	}
}

func TestTagReceiverMessageExtraction(t *testing.T) {
	s := DefaultScheme()
	rx, err := NewTagReceiver(s)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte{1, 1, 0, 1, 0, 0, 1, 0, 1, 0}
	// Ambient noise pulses, then the message, then more noise.
	rx.Feed(300e-6)
	rx.Feed(2100e-6)
	for _, d := range s.EncodeMessage(payload) {
		rx.Feed(d)
	}
	rx.Feed(450e-6)
	got, ok := rx.Message(len(payload))
	if !ok {
		t.Fatal("message not found")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload %v, want %v", got, payload)
	}
	// Buffer consumed: no second message.
	if _, ok := rx.Message(len(payload)); ok {
		t.Error("phantom second message")
	}
}

func TestTagReceiverPartialMessageWaits(t *testing.T) {
	s := DefaultScheme()
	rx, _ := NewTagReceiver(s)
	msg := s.EncodeMessage([]byte{1, 0, 1, 1})
	for _, d := range msg[:len(msg)-2] {
		rx.Feed(d)
	}
	if _, ok := rx.Message(4); ok {
		t.Fatal("incomplete message returned")
	}
	for _, d := range msg[len(msg)-2:] {
		rx.Feed(d)
	}
	got, ok := rx.Message(4)
	if !ok || !bytes.Equal(got, []byte{1, 0, 1, 1}) {
		t.Fatalf("completion failed: %v %v", got, ok)
	}
}

func TestTagReceiverBufferBounded(t *testing.T) {
	s := DefaultScheme()
	rx, _ := NewTagReceiver(s)
	for i := 0; i < 10000; i++ {
		rx.Feed(s.L0)
	}
	if len(rx.buf) > 1000 {
		t.Fatalf("buffer grew to %d bits", len(rx.buf))
	}
}

func TestTagReceiverRejectsBadScheme(t *testing.T) {
	s := DefaultScheme()
	s.Preamble = nil
	if _, err := NewTagReceiver(s); err == nil {
		t.Error("invalid scheme accepted")
	}
}

// TestEndToEndWithEnvelopeDetector ties PLM to the sample-level envelope
// detector: modulate pulse lengths as actual RF bursts, detect them, and
// decode the message through the tag receiver.
func TestEndToEndWithEnvelopeDetector(t *testing.T) {
	const rate = 2e6 // envelope detection needs no wide band
	s := DefaultScheme()
	payload := []byte{1, 0, 0, 1, 1, 0}
	durations := s.EncodeMessage(payload)

	// Build the waveform: bursts of -40 dBm separated by gaps.
	var total float64
	for _, d := range durations {
		total += d + s.Gap
	}
	cap := signal.New(rate, int(total*rate)+2000)
	amp := signal.AmplitudeForPowerDBm(-40)
	pos := 500
	for _, d := range durations {
		n := int(d * rate)
		for i := 0; i < n; i++ {
			cap.Samples[pos+i] = complex(amp, 0)
		}
		pos += n + int(s.Gap*rate)
	}

	pulses := tag.DetectEnvelope(cap)
	if len(pulses) != len(durations) {
		t.Fatalf("detected %d pulses, want %d", len(pulses), len(durations))
	}
	rx, _ := NewTagReceiver(s)
	for _, p := range pulses {
		rx.Feed(p.Duration)
	}
	got, ok := rx.Message(len(payload))
	if !ok {
		t.Fatal("no message decoded end to end")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("decoded %v, want %v", got, payload)
	}
}

func TestPulseSuccessProbabilityShape(t *testing.T) {
	// Monotone in margin, bounded, ~0.96-0.97 at strong signal.
	if p := PulseSuccessProbability(33); p < 0.95 || p > 0.99 {
		t.Fatalf("p(33 dB) = %g", p)
	}
	if p := PulseSuccessProbability(-20); p > 0.01 {
		t.Fatalf("p(-20 dB) = %g, want near 0", p)
	}
	for m := -30.0; m < 40; m += 1 {
		if PulseSuccessProbability(m) > PulseSuccessProbability(m+1)+1e-12 {
			t.Fatalf("not monotone at %g", m)
		}
	}
}

func TestMessageSuccessMatchesFig4Endpoints(t *testing.T) {
	// Fig 4 anchors (15 dBm TX): >70% within 4 m, ~50% at 50 m.
	// Margins comes from the channel model: ~33 dB at 4 m, ~12 dB at 50 m.
	const msgBits = 8
	if p := MessageSuccessProbability(33, msgBits); p < 0.70 || p > 0.90 {
		t.Fatalf("message success at 4 m margin = %.3f, want ~0.75", p)
	}
	if p := MessageSuccessProbability(12, msgBits); p < 0.40 || p > 0.65 {
		t.Fatalf("message success at 50 m margin = %.3f, want ~0.5", p)
	}
	if MessageSuccessProbability(10, 0) != 1 {
		t.Fatal("zero-bit message should always succeed")
	}
}

func TestMessageSuccessDecaysWithLength(t *testing.T) {
	if MessageSuccessProbability(20, 8) <= MessageSuccessProbability(20, 16) {
		t.Fatal("longer messages must be harder")
	}
}

func TestRateBpsZeroGuard(t *testing.T) {
	s := Scheme{}
	if s.RateBps() != 0 {
		t.Fatal("zero scheme should have zero rate")
	}
}

func TestPulseSuccessContinuity(t *testing.T) {
	// No discontinuity at margin 0 larger than a few percent.
	below := PulseSuccessProbability(-1e-9)
	above := PulseSuccessProbability(1e-9)
	if math.Abs(below-above) > 0.02 {
		t.Fatalf("discontinuity at 0: %g vs %g", below, above)
	}
}
