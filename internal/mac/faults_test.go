package mac

import (
	"testing"

	"repro/internal/faults"
)

// TestRoundCorruptionBlanksRounds: a corrupted PLM announcement silences
// the whole population for that round, and the tags rejoin on the next
// clean announcement.
func TestRoundCorruptionBlanksRounds(t *testing.T) {
	cfg := DefaultConfig(TDM, 8)
	cfg.RoundCorruption = func(round int) float64 {
		if round < 3 {
			return 1
		}
		return 0
	}
	res, err := Run(cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	for r, st := range res.Rounds {
		if r < 3 {
			if !st.Corrupted || st.Successes != 0 {
				t.Fatalf("round %d should be corrupted and silent: %+v", r, st)
			}
		} else {
			if st.Corrupted {
				t.Fatalf("round %d should be clean: %+v", r, st)
			}
			if st.Successes != cfg.Tags {
				t.Fatalf("round %d: tags did not rejoin after the corruption burst: %+v", r, st)
			}
		}
	}
}

// TestFaultProfileDrivesMAC wires a real fault profile's RoundCorruption
// hook into the MAC: excitation-outage rounds carry no announcement, so
// every tag misses them.
func TestFaultProfileDrivesMAC(t *testing.T) {
	profile, err := faults.Parse("flaky-excitation")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(TDM, 4)
	cfg.RoundCorruption = profile.RoundCorruption(cfg.Seed)
	res, err := Run(cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	// flaky-excitation's outage windows open at round 6 for 5 rounds.
	for r := 6; r <= 10; r++ {
		st := res.Rounds[r]
		if !st.Corrupted || st.Successes != 0 {
			t.Fatalf("outage round %d not silenced: %+v", r, st)
		}
	}
	if res.TotalBits() == 0 {
		t.Fatal("non-outage rounds delivered nothing")
	}
}

// TestFaultedMACDeterministic: runs with hooks attached stay reproducible.
func TestFaultedMACDeterministic(t *testing.T) {
	profile, _ := faults.Parse("chaos")
	mk := func() Config {
		cfg := DefaultConfig(FramedSlottedAloha, 6)
		cfg.RoundCorruption = profile.RoundCorruption(cfg.Seed)
		return cfg
	}
	a, err := Run(mk(), 50)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mk(), 50)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalBits() != b.TotalBits() || a.Duration != b.Duration || len(a.Rounds) != len(b.Rounds) {
		t.Fatal("faulted MAC run not reproducible")
	}
	for i := range a.Rounds {
		if a.Rounds[i] != b.Rounds[i] {
			t.Fatalf("round %d diverged: %+v vs %+v", i, a.Rounds[i], b.Rounds[i])
		}
	}
}
