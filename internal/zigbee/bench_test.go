package zigbee

import (
	"math/rand"
	"testing"

	"repro/internal/signal"
)

func BenchmarkBestSymbol(b *testing.B) {
	w := chipWords[7]
	var sink int
	for i := 0; i < b.N; i++ {
		_, c, _ := bestSymbol(w)
		sink += c
	}
	if sink != b.N*ChipsPerSymbol {
		b.Fatal("symbol 7 did not correlate fully with itself")
	}
}

func BenchmarkTransmit100B(b *testing.B) {
	tx := NewTransmitter()
	payload := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tx.Transmit(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReceive100B(b *testing.B) {
	sig, err := NewTransmitter().Transmit(make([]byte, 100))
	if err != nil {
		b.Fatal(err)
	}
	cap := signal.New(SampleRate, len(sig.Samples)+300)
	copy(cap.Samples[100:], sig.Samples)
	rx := NewReceiver()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rx.Receive(cap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectLeadIn times the preamble scan over 2000 samples of
// noise ahead of a frame, the case where the correlation loop dominates.
func BenchmarkDetectLeadIn(b *testing.B) {
	sig, err := NewTransmitter().Transmit(make([]byte, 20))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	cap := signal.New(SampleRate, 2000+len(sig.Samples))
	for i := range cap.Samples {
		cap.Samples[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * 0.1
	}
	for i, v := range sig.Samples {
		cap.Samples[2000+i] += v
	}
	rx := NewReceiver()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if start, _ := rx.Detect(cap); start < 0 {
			b.Fatal("no preamble")
		}
	}
}

// BenchmarkDetectNoFrame times the preamble scan over a capture too
// weak for the early stop: a 100-byte frame 20 dB under the noise, so
// the scan rates every position, the case that makes a few packets of
// a link sweep cost many times the rest.
func BenchmarkDetectNoFrame(b *testing.B) {
	sig, err := NewTransmitter().Transmit(make([]byte, 100))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	cap := signal.New(SampleRate, 400+len(sig.Samples))
	for i := range cap.Samples {
		cap.Samples[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	for i, v := range sig.Samples {
		cap.Samples[400+i] += v * 0.1
	}
	rx := NewReceiver()
	if _, q := rx.Detect(cap); q > 0.4 {
		b.Fatalf("quality %v would stop the scan early", q)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		detectSink, _ = rx.Detect(cap)
	}
}

// detectSink keeps BenchmarkDetectNoFrame's result live.
var detectSink int
