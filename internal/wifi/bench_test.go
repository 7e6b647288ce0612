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
