package faults

import (
	"math"
	"testing"

	"repro/internal/channel"
)

func TestNilProfileIsClean(t *testing.T) {
	var p *Profile
	for _, slot := range []int{0, 1, 17, 300} {
		if pkt := p.At(1, slot); !pkt.IsZero() {
			t.Fatalf("nil profile produced faults at slot %d: %+v", slot, pkt)
		}
	}
	if p.RoundCorruption(1) != nil {
		t.Fatal("nil profile produced a corruption hook")
	}
	if p.WithIntensity(0.5) != nil {
		t.Fatal("nil profile scaled to non-nil")
	}
}

func TestAtDeterministicAndSlotAddressable(t *testing.T) {
	p, err := Parse("chaos")
	if err != nil {
		t.Fatal(err)
	}
	// Slot k's impairment must not depend on which slots were queried
	// before, in what order, or how often.
	forward := make([]Packet, 50)
	for i := range forward {
		forward[i] = p.At(7, i)
	}
	for i := len(forward) - 1; i >= 0; i-- {
		if got := p.At(7, i); got != forward[i] {
			t.Fatalf("slot %d changed between queries:\n %+v\nvs %+v", i, forward[i], got)
		}
	}
}

func TestSeedChangesTimeline(t *testing.T) {
	p, _ := Parse("bursty-wifi")
	same := true
	for i := 0; i < 40 && same; i++ {
		same = p.At(1, i) == p.At(2, i)
	}
	if same {
		t.Fatal("different seeds gave identical fault timelines")
	}
}

func TestBurstProducesBursts(t *testing.T) {
	p := &Profile{Burst: &Burst{PGoodBad: 0.2, PBadGood: 0.3, ExtraLossDB: 15}}
	bad, runs, prev := 0, 0, false
	const n = 400
	for i := 0; i < n; i++ {
		pkt := p.At(3, i)
		if pkt.BurstBad {
			if pkt.ExtraLossDB != 15 {
				t.Fatalf("bad state loss %g, want 15", pkt.ExtraLossDB)
			}
			bad++
			if !prev {
				runs++
			}
		} else if pkt.ExtraLossDB != 0 {
			t.Fatalf("good state leaked loss %g", pkt.ExtraLossDB)
		}
		prev = pkt.BurstBad
	}
	// Stationary bad fraction = p01/(p01+p10) = 0.4; mean run = 1/p10 ≈ 3.3.
	if frac := float64(bad) / n; frac < 0.2 || frac > 0.6 {
		t.Fatalf("bad-state fraction %.2f far from stationary 0.4", frac)
	}
	if runs == 0 || bad/runs < 2 {
		t.Fatalf("bursts not bursty: %d bad slots in %d runs", bad, runs)
	}
}

func TestOutageWindowsArePeriodic(t *testing.T) {
	p := &Profile{Outage: &Outage{PeriodSlots: 10, LengthSlots: 3, StartSlot: 4}}
	for i := 0; i < 40; i++ {
		want := i >= 4 && (i-4)%10 < 3
		if got := p.At(1, i).Outage; got != want {
			t.Fatalf("slot %d outage = %v, want %v", i, got, want)
		}
	}
	// Intensity scales the window length down.
	half := p.WithIntensity(0.34) // round(3*0.34) = 1
	for i := 0; i < 40; i++ {
		want := i >= 4 && (i-4)%10 < 1
		if got := half.At(1, i).Outage; got != want {
			t.Fatalf("intensity 0.34: slot %d outage = %v, want %v", i, got, want)
		}
	}
}

func TestDriftWalksAndClamps(t *testing.T) {
	p := &Profile{Drift: &Drift{StepHz: 500, MaxHz: 800}}
	varied := false
	var last float64
	for i := 0; i < 200; i++ {
		cfo := p.At(5, i).CFOHz
		if math.Abs(cfo) > 800 {
			t.Fatalf("slot %d CFO %g beyond clamp", i, cfo)
		}
		if i > 0 && cfo != last {
			varied = true
		}
		last = cfo
	}
	if !varied {
		t.Fatal("drift never moved")
	}
}

func TestBrownoutSkipsAndRecovers(t *testing.T) {
	p := &Profile{Brownout: &Brownout{HarvestPerSlot: 0.5, Capacity: 2}}
	skips, truncs, fulls := 0, 0, 0
	for i := 0; i < 100; i++ {
		pkt := p.At(9, i)
		switch {
		case pkt.SkipReflection:
			skips++
		case pkt.Truncate > 0:
			if pkt.Truncate >= 1 {
				t.Fatalf("truncate fraction %g out of (0,1)", pkt.Truncate)
			}
			truncs++
		default:
			fulls++
		}
		if pkt.Energy < 0 || pkt.Energy > 2 {
			t.Fatalf("reservoir %g escaped [0, cap]", pkt.Energy)
		}
	}
	if fulls == 0 {
		t.Fatal("harvester never recovered enough for a full reflection")
	}
	if skips+truncs == 0 {
		t.Fatal("0.5 units/slot harvest never browned out a 1-unit reflection schedule")
	}
}

func TestIntensityScalesSeverity(t *testing.T) {
	base, _ := Parse("bursty-wifi")
	stressedLoss := func(p *Profile) float64 {
		total := 0.0
		for i := 0; i < 300; i++ {
			total += p.At(11, i).ExtraLossDB
		}
		return total
	}
	low := stressedLoss(base.WithIntensity(0.25))
	high := stressedLoss(base.WithIntensity(1))
	if low >= high {
		t.Fatalf("intensity 0.25 loss %.0f >= intensity 1 loss %.0f", low, high)
	}
	if base.WithIntensity(0) != nil {
		t.Fatal("intensity 0 should disable the profile entirely")
	}
}

func TestImpairmentBridgesOnlyChannelFaults(t *testing.T) {
	if (Packet{}).ChannelImpairment() != nil {
		t.Fatal("clean packet produced an impairment")
	}
	// An impulse power without an impulse probability draws no impulse.
	if quiet := (Packet{Impairment: channel.Impairment{ImpulsePowerDBm: -50}}); quiet.ChannelImpairment() != nil || !quiet.IsZero() {
		t.Fatal("impulse power without probability counted as a fault")
	}
	pkt := Packet{Impairment: channel.Impairment{ExtraLossDB: 9, CFOHz: 120, Truncate: 0.5, ImpulseProb: 0.001, ImpulsePowerDBm: -50}}
	imp := pkt.ChannelImpairment()
	if imp == nil || imp.ExtraLossDB != 9 || imp.CFOHz != 120 || imp.Truncate != 0.5 ||
		imp.ImpulseProb != 0.001 || imp.ImpulsePowerDBm != -50 {
		t.Fatalf("impairment mistranslated: %+v", imp)
	}
}

func TestRoundCorruption(t *testing.T) {
	p := &Profile{Outage: &Outage{PeriodSlots: 10, LengthSlots: 2, StartSlot: 0}}
	hook := p.RoundCorruption(1)
	if hook(0) != 1 || hook(1) != 1 {
		t.Fatal("outage rounds must corrupt the announcement with certainty")
	}
	if hook(5) != 0 {
		t.Fatal("clean round reported corruption")
	}
}

func TestParsePresets(t *testing.T) {
	for _, name := range Names() {
		p, err := Parse(name)
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		if name == "none" {
			if p != nil {
				t.Fatal("none must parse to a nil profile")
			}
			continue
		}
		if p.Name != name {
			t.Fatalf("preset %s parsed with name %q", name, p.Name)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("preset %s invalid: %v", name, err)
		}
		if p.String() != name {
			t.Fatalf("preset %s renders as %q", name, p.String())
		}
	}
}

func TestParseCustomAndRoundTrip(t *testing.T) {
	spec := "burst:p01=0.1,p10=0.3,loss=12;outage:period=24,len=4,start=6;impulse:prob=0.001,power=-52@0.8"
	p, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.Burst.PGoodBad != 0.1 || p.Outage.PeriodSlots != 24 || p.Outage.StartSlot != 6 ||
		p.Impulse.PowerDBm != -52 || p.Intensity != 0.8 {
		t.Fatalf("misparsed: %+v", p)
	}
	q, err := Parse(p.String())
	if err != nil {
		t.Fatalf("round trip of %q: %v", p.String(), err)
	}
	for i := 0; i < 30; i++ {
		if p.At(3, i) != q.At(3, i) {
			t.Fatalf("round-tripped profile diverges at slot %d", i)
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	bad := []string{
		"", "nonsense", "burst", "burst:p01=2", "burst:p01=0.1,p10=0",
		"burst:wat=1", "outage:period=0,len=1", "outage:period=5,len=9",
		"brownout:harvest=7", "impulse:prob=-1", "chaos@0", "chaos@1.5",
		"chaos@wat", "burst:p01=NaN", "drift:step=-5", "burst:p01=0.1,p01=0.2",
	}
	for _, spec := range bad {
		if p, err := Parse(spec); err == nil {
			t.Errorf("spec %q accepted as %+v", spec, p)
		}
	}
}

func TestOutageFreezesHarvester(t *testing.T) {
	// During an outage there is no excitation: the tag neither harvests
	// nor reflects, so the reservoir is frozen at its pre-outage level and
	// the tag emerges from the window no better charged than it entered.
	p := &Profile{
		Outage:   &Outage{PeriodSlots: 1000, LengthSlots: 4, StartSlot: 8},
		Brownout: &Brownout{HarvestPerSlot: 0.3, Capacity: 2},
	}
	entering := p.At(2, 7).Energy
	for slot := 8; slot <= 11; slot++ {
		pkt := p.At(2, slot)
		if !pkt.Outage {
			t.Fatalf("slot %d should be an outage", slot)
		}
		if pkt.Energy != entering {
			t.Fatalf("reservoir moved during outage: slot %d has %g, entered with %g",
				slot, pkt.Energy, entering)
		}
	}
	// Had the tag kept harvesting through the 4-slot window it would have
	// banked 1.2 units and exited undervoltage lockout; starved, it emerges
	// still dark and must charge three more slots before reflecting again.
	after := p.At(2, 12)
	if !after.SkipReflection {
		t.Fatalf("post-outage slot should still be in UVLO (skip), got %+v", after)
	}
	resumed := p.At(2, 15)
	if resumed.SkipReflection || resumed.Truncate != 0 {
		t.Fatalf("slot 15 should be a recovered full reflection, got %+v", resumed)
	}
}

// TestProfileAtZeroAlloc pins the per-slot timeline evaluation at zero
// heap allocations: the replayed burst/drift generators come from a pool,
// so fault-injected runs add no steady-state per-packet heap traffic.
func TestProfileAtZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are not meaningful under the race detector")
	}
	p, err := Parse("chaos")
	if err != nil {
		t.Fatal(err)
	}
	p.At(12345, 64) // warm the RNG pool
	slot := 0
	allocs := testing.AllocsPerRun(100, func() {
		_ = p.At(12345, slot%256)
		slot++
	})
	if allocs != 0 {
		t.Fatalf("Profile.At: %v allocs/op, want 0", allocs)
	}
}
