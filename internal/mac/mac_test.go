package mac

import (
	"math"
	"testing"

	"repro/internal/plm"
)

func TestValidation(t *testing.T) {
	bad := []Config{
		{},
		func() Config { c := DefaultConfig(FramedSlottedAloha, 4); c.Tags = 0; return c }(),
		func() Config { c := DefaultConfig(FramedSlottedAloha, 4); c.Scheme = Scheme(9); return c }(),
	}
	for i, cfg := range bad {
		if _, err := Run(cfg, 5); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := Run(DefaultConfig(TDM, 4), 0); err == nil {
		t.Error("zero rounds accepted")
	}
}

// TestControlRateIsDefaultPLM: the announcement airtime is priced at the
// default PLM scheme's signalling rate.
func TestControlRateIsDefaultPLM(t *testing.T) {
	if got, want := CtrlRateBps, plm.DefaultScheme().RateBps(); got != want {
		t.Fatalf("CtrlRateBps %v, want plm.DefaultScheme().RateBps() = %v", got, want)
	}
}

func TestTDMDeliversEverySlot(t *testing.T) {
	cfg := DefaultConfig(TDM, 8)
	res, err := Run(cfg, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.Rounds {
		if st.Collisions != 0 {
			t.Fatal("TDM produced collisions")
		}
		if st.Slots != 8 {
			t.Fatalf("TDM slots %d, want 8", st.Slots)
		}
	}
	// With 50 dB margins nearly all rounds decode; every tag gets data.
	for i, b := range res.PerTagBits {
		if b == 0 {
			t.Fatalf("tag %d starved under TDM", i)
		}
	}
	j, err := res.FairnessIndex()
	if err != nil {
		t.Fatal(err)
	}
	if j < 0.95 {
		t.Fatalf("TDM fairness %.3f, want ~1", j)
	}
}

func TestAlohaSlotAccounting(t *testing.T) {
	cfg := DefaultConfig(FramedSlottedAloha, 10)
	res, err := Run(cfg, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.Rounds {
		if st.Successes+st.Collisions+st.Idle != st.Slots {
			t.Fatalf("slot accounting broken: %+v", st)
		}
	}
	if res.TotalBits() == 0 {
		t.Fatal("no data delivered")
	}
	if res.Duration <= 0 {
		t.Fatal("no time elapsed")
	}
}

func TestAlohaThroughputBelowTDM(t *testing.T) {
	// Collisions must cost Aloha real throughput relative to TDM at every
	// population size (the Fig 17a gap).
	for _, n := range []int{4, 12, 20} {
		aloha, err := Run(DefaultConfig(FramedSlottedAloha, n), 200)
		if err != nil {
			t.Fatal(err)
		}
		tdm, err := Run(DefaultConfig(TDM, n), 200)
		if err != nil {
			t.Fatal(err)
		}
		a, d := aloha.AggregateThroughputBps(), tdm.AggregateThroughputBps()
		if a >= d {
			t.Fatalf("n=%d: aloha %.0f >= tdm %.0f bps", n, a, d)
		}
		if a < 0.25*d {
			t.Fatalf("n=%d: aloha %.0f implausibly far below tdm %.0f", n, a, d)
		}
	}
}

func TestAggregateThroughputRisesWithTags(t *testing.T) {
	// Fig 17a: control overhead amortises as the population grows.
	thr := func(n int) float64 {
		res, err := Run(DefaultConfig(FramedSlottedAloha, n), 400)
		if err != nil {
			t.Fatal(err)
		}
		return res.AggregateThroughputBps()
	}
	t4, t20 := thr(4), thr(20)
	if t20 <= t4 {
		t.Fatalf("throughput fell with more tags: %0.f -> %.0f bps", t4, t20)
	}
}

func TestAsymptoteNearPaperValues(t *testing.T) {
	// Beyond the physical 20 tags the paper simulates larger populations:
	// Aloha ~18 kbps, TDM ~40 kbps.
	aloha, err := Run(DefaultConfig(FramedSlottedAloha, 100), 300)
	if err != nil {
		t.Fatal(err)
	}
	tdm, err := Run(DefaultConfig(TDM, 100), 300)
	if err != nil {
		t.Fatal(err)
	}
	a := aloha.AggregateThroughputBps() / 1e3
	d := tdm.AggregateThroughputBps() / 1e3
	if a < 12 || a > 22 {
		t.Fatalf("aloha asymptote %.1f kbps, want ~15-18", a)
	}
	if d < 33 || d > 46 {
		t.Fatalf("tdm asymptote %.1f kbps, want ~40", d)
	}
}

func TestFairnessNearPaperValue(t *testing.T) {
	// Fig 17b: ~0.85 with 20 tags over a measurement-sized run.
	cfg := DefaultConfig(FramedSlottedAloha, 20)
	res, err := Run(cfg, 12)
	if err != nil {
		t.Fatal(err)
	}
	j, err := res.FairnessIndex()
	if err != nil {
		t.Fatal(err)
	}
	if j < 0.7 || j > 0.98 {
		t.Fatalf("fairness %.3f, want ~0.85", j)
	}
}

func TestAdaptiveTracksPopulation(t *testing.T) {
	// Starting far under-provisioned, Schoute's estimate must grow the
	// frame toward the population size: feed it each frame's expected
	// outcome for 30 contending tags.
	const n = 30
	slots := 2
	for r := 0; r < 10; r++ {
		l := float64(slots)
		st := RoundStats{
			Slots:     slots,
			Successes: int(math.Round(n * math.Pow(1-1/l, n-1))),
			Idle:      int(math.Round(l * math.Pow(1-1/l, n))),
		}
		st.Collisions = slots - st.Successes - st.Idle
		slots = NextSlotCount(st)
	}
	if slots < 20 || slots > 40 {
		t.Fatalf("adaptive frame settled at %d slots for %d tags", slots, n)
	}
	for _, tc := range []struct {
		st   RoundStats
		want int
	}{
		{RoundStats{Slots: 8, Idle: 8}, 2},
		{RoundStats{Slots: 256, Collisions: 200}, 256},
		{RoundStats{Slots: 10, Successes: 3, Collisions: 2, Idle: 5}, 8},
	} {
		if got := NextSlotCount(tc.st); got != tc.want {
			t.Errorf("NextSlotCount(%+v) = %d, want %d", tc.st, got, tc.want)
		}
	}
	// Run resizes every Aloha frame by NextSlotCount of the round before.
	res, err := Run(DefaultConfig(FramedSlottedAloha, n), 30)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds[0].Slots != n {
		t.Fatalf("first frame %d slots, want one per tag (%d)", res.Rounds[0].Slots, n)
	}
	for r := 1; r < len(res.Rounds); r++ {
		if got, want := res.Rounds[r].Slots, NextSlotCount(res.Rounds[r-1]); got != want {
			t.Fatalf("round %d: %d slots, want %d", r, got, want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(DefaultConfig(FramedSlottedAloha, 10), 50)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(DefaultConfig(FramedSlottedAloha, 10), 50)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalBits() != b.TotalBits() || a.Duration != b.Duration {
		t.Fatal("same seed, different results")
	}
}

func TestSchemeString(t *testing.T) {
	if FramedSlottedAloha.String() == TDM.String() {
		t.Fatal("scheme names collide")
	}
	if Scheme(7).String() == "" {
		t.Fatal("unknown scheme has empty name")
	}
}
