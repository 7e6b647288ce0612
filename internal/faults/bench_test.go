package faults

import (
	"math/rand"
	"testing"

	"repro/internal/channel"
	"repro/internal/signal"
)

// BenchmarkProfileAt times the per-slot fault timeline evaluation for the
// chaos preset (every impairment class active).
func BenchmarkProfileAt(b *testing.B) {
	p, err := Parse("chaos")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.At(12345, i%4096)
	}
}

// BenchmarkImpairedApply times the channel application with an active
// impairment (extra loss, CFO drift, truncation and impulsive noise all
// engaged) — the fault layer's per-packet sample-domain cost.
func BenchmarkImpairedApply(b *testing.B) {
	imp := &channel.Impairment{
		ExtraLossDB:     10,
		CFOHz:           1500,
		Truncate:        0.8,
		ImpulseProb:     0.0005,
		ImpulsePowerDBm: -55,
	}
	l := channel.Link{
		Deployment: channel.LOS,
		TxPowerDBm: 20,
		SystemGain: 6,
		TagLossDB:  8,
		TxToTag:    1,
		TagToRx:    5,
		NoiseFloor: -90,
		Impairment: imp,
		Seed:       42,
	}
	rng := rand.New(rand.NewSource(7))
	in := signal.New(20e6, 8192)
	for i := range in.Samples {
		in.Samples[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	dst := signal.New(0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.ApplyToWithPower(dst, in, 400, false, 0); err != nil {
			b.Fatal(err)
		}
	}
}
