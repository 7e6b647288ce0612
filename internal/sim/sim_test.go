package sim

import (
	"testing"

	"repro/internal/mac"
)

func TestValidation(t *testing.T) {
	if _, err := Run(0, 5, 1); err == nil {
		t.Error("zero tags accepted")
	}
	if _, err := Run(4, 0, 1); err == nil {
		t.Error("zero rounds accepted")
	}
}

func TestDeliversAndAccounts(t *testing.T) {
	res, err := Run(10, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBits() == 0 {
		t.Fatal("no data delivered")
	}
	for _, st := range res.Rounds {
		if st.Successes+st.Collisions+st.Idle != st.Slots {
			t.Fatalf("slot accounting broken: %+v", st)
		}
	}
	starved := 0
	for _, b := range res.PerTagBits {
		if b == 0 {
			starved++
		}
	}
	if starved > 2 {
		t.Fatalf("%d/10 tags starved over 40 rounds", starved)
	}
}

// TestAgreesWithAbstractMACModel: the firmware-level simulation and the
// probability-abstracted mac package must land on comparable aggregate
// throughput — they model the same system at different fidelities.
func TestAgreesWithAbstractMACModel(t *testing.T) {
	const n, rounds = 20, 200
	fine, err := Run(n, rounds, 1)
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := mac.Run(mac.DefaultConfig(mac.FramedSlottedAloha, n), rounds)
	if err != nil {
		t.Fatal(err)
	}
	f := fine.AggregateThroughputBps()
	c := coarse.AggregateThroughputBps()
	if f < 0.6*c || f > 1.5*c {
		t.Fatalf("firmware-level %.0f bps vs abstract %.0f bps: models diverge", f, c)
	}
}

func TestFairnessAtTwenty(t *testing.T) {
	res, err := Run(20, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	j, err := res.FairnessIndex()
	if err != nil {
		t.Fatal(err)
	}
	if j < 0.6 || j > 0.99 {
		t.Fatalf("fairness %.3f, want ~0.85", j)
	}
}

// TestAdaptationGrowsUnderProvisionedFrame: after a frame whose
// collisions hide more tags than it had slots, the coordinator grows the
// next frame by mac.NextSlotCount (capped at the announcement's 255).
func TestAdaptationGrowsUnderProvisionedFrame(t *testing.T) {
	res, err := Run(30, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	grew := false
	for r := 1; r < len(res.Rounds); r++ {
		prev := res.Rounds[r-1]
		want := min(mac.NextSlotCount(prev), 255)
		if got := res.Rounds[r].Slots; got != want {
			t.Fatalf("round %d: %d slots, want %d", r, got, want)
		}
		grew = grew || want > prev.Slots
	}
	if !grew {
		t.Fatal("no under-provisioned frame grew")
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(8, 25, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(8, 25, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalBits() != b.TotalBits() || a.Duration != b.Duration {
		t.Fatal("same seed, different results")
	}
}
