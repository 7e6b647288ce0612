package core

import (
	"runtime"
	"testing"

	"repro/internal/faults"
)

// TestFaultedRunParallelMatchesRun extends the determinism contract to
// fault injection: with a profile attached, the fault timeline is addressed
// by packet index, so RunParallel must stay bit-identical to the serial Run
// for every worker count.
func TestFaultedRunParallelMatchesRun(t *testing.T) {
	profile, err := faults.Parse("chaos")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		radio Radio
		dist  float64
	}{
		{WiFi, 10},
		{ZigBee, 8},
		{Bluetooth, 6},
	}
	const packets = 6
	for _, c := range cases {
		cfg := DefaultConfig(c.radio, c.dist)
		cfg.Seed = 99
		cfg.Faults = profile
		if c.radio == WiFi {
			cfg.PayloadSize = 400
		}
		s, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := s.Run(packets)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			par, err := s.RunParallel(packets, workers)
			if err != nil {
				t.Fatal(err)
			}
			if par != serial {
				t.Fatalf("%v workers=%d diverged under faults:\n serial %+v\n par    %+v",
					c.radio, workers, serial, par)
			}
		}
	}
}

// TestCleanProfileBitIdentical: a profile whose processes never fire must
// leave every result bit-identical to a session with no profile at all —
// the acceptance criterion that faults-off output matches today's output.
func TestCleanProfileBitIdentical(t *testing.T) {
	base := DefaultConfig(ZigBee, 8)
	base.Seed = 7
	plain, err := NewSession(base)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Run(4)
	if err != nil {
		t.Fatal(err)
	}

	cfg := base
	// PGoodBad 0: the burst chain steps its RNG but never leaves the good
	// state, so every Packet is clean and the channel takes the benign path.
	cfg.Faults = &faults.Profile{Burst: &faults.Burst{PGoodBad: 0, PBadGood: 1, ExtraLossDB: 30}}
	faulted, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := faulted.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("clean profile changed the run:\n plain   %+v\n faulted %+v", want, got)
	}

	// WithIntensity(0) must degenerate to exactly the nil-profile session.
	cfg.Faults = cfg.Faults.WithIntensity(0)
	if cfg.Faults != nil {
		t.Fatal("intensity 0 did not disable the profile")
	}
}

// TestOutageLosesEveryPacket: a permanent excitation outage short-circuits
// every slot before any PHY work — all packets lost, nothing captured.
func TestOutageLosesEveryPacket(t *testing.T) {
	cfg := DefaultConfig(ZigBee, 3)
	cfg.Faults = &faults.Profile{Outage: &faults.Outage{PeriodSlots: 1, LengthSlots: 1}}
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	if res.PacketsLost != 5 || res.TagBitsDecoded != 0 {
		t.Fatalf("permanent outage still delivered data: %+v", res)
	}
	if res.SamplesProcessed != 0 {
		t.Fatalf("outage slots pushed %d samples through the receiver", res.SamplesProcessed)
	}
	if res.ElapsedSeconds <= 0 {
		t.Fatal("outage slots must still consume air time")
	}
}

// TestAdvanceSlotsSkipsFaultTimeline: backing off jumps the session over a
// stretch of the fault timeline, so a sender that waits out a window of
// outages lands on a working slot.
func TestAdvanceSlotsSkipsFaultTimeline(t *testing.T) {
	cfg := DefaultConfig(ZigBee, 3)
	// Slots 0..9 out, 10+ clean (one non-repeating window via huge period).
	cfg.Faults = &faults.Profile{Outage: &faults.Outage{PeriodSlots: 1 << 20, LengthSlots: 10}}
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tagBits := make([]byte, s.Capacity())
	pr, err := s.RunPacket(tagBits)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Fault.Outage {
		t.Fatal("slot 0 should be an outage")
	}
	s.AdvanceSlots(9) // slots 1..9 pass in silence
	if s.slot != 10 {
		t.Fatalf("slot counter at %d, want 10", s.slot)
	}
	pr, err = s.RunPacket(tagBits)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Fault.Outage {
		t.Fatal("slot 10 should be past the outage window")
	}
	if !pr.Decoded {
		t.Fatal("clean close-range slot should decode")
	}
}

// TestSetQuaternary covers the mid-session scheme switch Send's fallback
// uses: capacity halves going quaternary→binary, and the switch refuses
// configurations quaternary translation cannot run on.
func TestSetQuaternary(t *testing.T) {
	cfg := DefaultConfig(WiFi, 2)
	cfg.WiFiRateMbps = 12
	cfg.Quaternary = true
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	quadCap := s.Capacity()
	if err := s.SetQuaternary(false); err != nil {
		t.Fatal(err)
	}
	binCap := s.Capacity()
	if binCap*2 != quadCap {
		t.Fatalf("capacity %d quaternary vs %d binary; want exactly 2x", quadCap, binCap)
	}
	if err := s.SetQuaternary(true); err != nil {
		t.Fatalf("recovery back to quaternary refused: %v", err)
	}
	if s.Capacity() != quadCap {
		t.Fatal("capacity did not recover with the scheme")
	}

	// 6 Mbps is BPSK: quaternary must be refused, and the failed switch
	// must not corrupt the session config.
	cfg6 := DefaultConfig(WiFi, 2)
	s6, err := NewSession(cfg6)
	if err != nil {
		t.Fatal(err)
	}
	if err := s6.SetQuaternary(true); err == nil {
		t.Fatal("quaternary on 6 Mbps BPSK accepted")
	}
	if s6.Config().Quaternary {
		t.Fatal("failed switch mutated the config")
	}
}

// TestValidateRejectsBadProfile: NewSession must refuse an invalid fault
// profile instead of running with it.
func TestValidateRejectsBadProfile(t *testing.T) {
	cfg := DefaultConfig(ZigBee, 3)
	cfg.Faults = &faults.Profile{Burst: &faults.Burst{PGoodBad: 2}}
	if _, err := NewSession(cfg); err == nil {
		t.Fatal("invalid profile accepted")
	}
}
