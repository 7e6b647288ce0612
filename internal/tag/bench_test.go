package tag

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/signal"
)

// BenchmarkTranslateInPlace is the WiFi tag's phase translation of one
// 1500 B, 6 Mbps excitation (40,640 samples at 20 MS/s): 180° blocks of
// four OFDM symbols from the third symbol on, random tag bits.
func BenchmarkTranslateInPlace(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := signal.New(20e6, 40640)
	for i := range s.Samples {
		s.Samples[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	p := &PhaseTranslator{
		DataStart:     320/20e6 + 2*4e-6,
		SymbolPeriod:  4e-6,
		SymbolsPerBit: 4,
		DeltaTheta:    math.Pi,
		BitsPerStep:   1,
		Latency:       EnvelopeLatency,
	}
	bits := make([]byte, p.Capacity(s.Duration()))
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.TranslateInPlace(s, bits); err != nil {
			b.Fatal(err)
		}
	}
}
