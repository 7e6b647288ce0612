package wifi

import (
	"math/rand"
	"testing"
)

func BenchmarkViterbiHard(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	msg := make([]byte, 1000)
	for i := range msg {
		msg[i] = byte(rng.Intn(2))
	}
	coded := ConvEncode(append(msg, make([]byte, TailBits)...))
	dst := make([]byte, len(coded)/2)
	b.SetBytes(int64(len(msg)) / 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ViterbiDecodeInto(dst, coded); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransmit1500B(b *testing.B) {
	tx := NewTransmitter()
	psdu := AppendFCS(make([]byte, 1500))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tx.Transmit(psdu, Rates[6]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReceive1500B(b *testing.B) {
	tx := NewTransmitter()
	psdu := AppendFCS(make([]byte, 1500))
	sig, err := tx.Transmit(psdu, Rates[6])
	if err != nil {
		b.Fatal(err)
	}
	cap := appendSilence(sig, 200, 200)
	rx := NewReceiver()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rx.Receive(cap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectPreambleLeadIn times the preamble scan over 400
// samples of noise ahead of a 1500-byte packet, the common case: the
// scan stops one symbol past the preamble.
func BenchmarkDetectPreambleLeadIn(b *testing.B) {
	sig, err := NewTransmitter().Transmit(AppendFCS(make([]byte, 1500)), Rates[6])
	if err != nil {
		b.Fatal(err)
	}
	cap := newNoise(400+len(sig.Samples)+400, 0.01, 1)
	for i, v := range sig.Samples {
		cap.Samples[400+i] += v
	}
	rx := NewReceiver()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if start, _ := rx.DetectPreamble(cap); start != 400 {
			b.Fatalf("preamble at %d, want 400", start)
		}
	}
}

// BenchmarkDetectPreambleNoPacket times the preamble scan over a
// 41,440-sample capture of noise alone, a WiFi capture's length: no
// position clears the gate, so the scan rates every position.
func BenchmarkDetectPreambleNoPacket(b *testing.B) {
	cap := newNoise(41440, 1, 2)
	rx := NewReceiver()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if start, _ := rx.DetectPreamble(cap); start >= 0 {
			b.Fatalf("preamble found at %d in noise", start)
		}
	}
}
