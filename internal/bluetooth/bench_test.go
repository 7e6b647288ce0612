package bluetooth

import (
	"math/rand"
	"testing"

	"repro/internal/signal"
	"repro/internal/simd"
)

func BenchmarkDiscriminate(b *testing.B) {
	sig := ModulateBits(make([]byte, 1000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Discriminate(sig)
	}
}

// BenchmarkChannelFilter times the receiver's channel filter over a
// 17,696-sample capture (a 255-byte frame plus guard) into a reused
// output, scratch from a pooled arena as demod takes it, with the Go
// loops and, where the build and CPU carry them, the asm kernels
// dispatched.
func BenchmarkChannelFilter(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]complex128, 17696)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	dst := make([]complex128, len(x))
	prev := simd.Enabled()
	defer simd.SetEnabled(prev)
	for _, on := range []bool{false, true} {
		if simd.SetEnabled(on); on && !simd.Enabled() {
			break
		}
		b.Run(simd.Mode(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a := signal.GetArena()
				channelFilter.FilterInto(dst, x, a)
				a.Release()
			}
		})
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
