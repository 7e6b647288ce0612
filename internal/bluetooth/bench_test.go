package bluetooth

import (
	"math/rand"
	"testing"

	"repro/internal/signal"
)

func BenchmarkDiscriminate(b *testing.B) {
	sig := ModulateBits(make([]byte, 1000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Discriminate(sig)
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

// BenchmarkDetectLeadIn times the sync scan over 2000 samples of noise
// ahead of a frame, on a discriminator pass taken once, so only the
// correlation scan is timed.
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
	d := NewReceiver().Demod(cap)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if start, _ := d.Detect(); start < 0 {
			b.Fatal("no sync")
		}
	}
}
