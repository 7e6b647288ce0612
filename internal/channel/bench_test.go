package channel

import (
	"math/rand"
	"testing"

	"repro/internal/signal"
)

func benchLink() Link {
	return Link{
		Deployment: LOS,
		TxPowerDBm: 20,
		SystemGain: 6,
		TagLossDB:  8,
		TxToTag:    1,
		TagToRx:    5,
		NoiseFloor: -90,
		FadingK:    3,
		Seed:       42,
	}
}

func benchInput(n int) *signal.Signal {
	rng := rand.New(rand.NewSource(7))
	s := signal.New(20e6, n)
	for i := range s.Samples {
		s.Samples[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return s
}

// BenchmarkLinkApply times the per-packet channel application on a
// Rician-faded link; bench-dsp tracks its ns/op and allocs/op.
func BenchmarkLinkApply(b *testing.B) {
	in := benchInput(8192)
	b.Run("Rician", func(b *testing.B) {
		l := benchLink()
		dst := signal.New(0, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := l.ApplyToWithPower(dst, in, 400, false, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestApplyToZeroAllocs pins the pooled fast path: once the destination
// capacity and the RNG pool are warm, ApplyToWithPower must not touch the
// heap.
func TestApplyToZeroAllocs(t *testing.T) {
	l := benchLink()
	in := benchInput(4096)
	dst := signal.New(0, 0)
	if err := l.ApplyToWithPower(dst, in, 400, false, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := l.ApplyToWithPower(dst, in, 400, false, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm ApplyToWithPower allocated %v times per run, want 0", allocs)
	}
}

// TestApplyToMatchesApply pins that a reused destination, dirty from an
// earlier capture, receives exactly what a fresh one does, and that
// passing the source's own mean power is bit-identical to passing 0.
func TestApplyToMatchesApply(t *testing.T) {
	l := benchLink()
	l.Multipath = []Tap{{Delay: 250e-9, GainDB: -6}}
	l.CFOHz = 11e3
	in := benchInput(2048)
	want, err := apply(l, in, 400, false)
	if err != nil {
		t.Fatal(err)
	}
	dst := signal.New(0, 0)
	for round, power := range []float64{0, in.MeanPower()} { // round 1 reuses a dirty buffer
		if err := l.ApplyToWithPower(dst, in, 400, false, power); err != nil {
			t.Fatal(err)
		}
		if len(dst.Samples) != len(want.Samples) || dst.Rate != want.Rate {
			t.Fatalf("round %d: shape (%d, %v) != (%d, %v)",
				round, len(dst.Samples), dst.Rate, len(want.Samples), want.Rate)
		}
		for i := range want.Samples {
			if dst.Samples[i] != want.Samples[i] {
				t.Fatalf("round %d: sample %d differs: %v vs %v",
					round, i, dst.Samples[i], want.Samples[i])
			}
		}
	}
}
