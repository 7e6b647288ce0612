package firmware

import (
	"bytes"
	"testing"

	"repro/internal/plm"
	"repro/internal/tag"
)

func pulsesFor(t *testing.T, scheme plm.Scheme, slots int) []tag.Pulse {
	t.Helper()
	payload, err := EncodeAnnouncement(slots)
	if err != nil {
		t.Fatal(err)
	}
	durations := scheme.EncodeMessage(payload)
	out := make([]tag.Pulse, len(durations))
	for i, d := range durations {
		out[i] = tag.Pulse{Duration: d}
	}
	return out
}

func TestEncodeAnnouncement(t *testing.T) {
	msg, err := EncodeAnnouncement(5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(msg, []byte{1, 0, 1, 0, 0, 0, 0, 0}) {
		t.Fatalf("announcement %v", msg)
	}
	if _, err := EncodeAnnouncement(0); err == nil {
		t.Error("zero slots accepted")
	}
	if _, err := EncodeAnnouncement(256); err == nil {
		t.Error("256 slots accepted")
	}
}

func TestArmAndFire(t *testing.T) {
	scheme := plm.DefaultScheme()
	fw, err := New(scheme, 1)
	if err != nil {
		t.Fatal(err)
	}
	fw.Enqueue([]byte{1, 0, 1})
	if fw.State() != Idle || fw.ChosenSlot() != -1 {
		t.Fatal("fresh tag not idle")
	}
	for _, p := range pulsesFor(t, scheme, 8) {
		fw.OnPulse(p)
	}
	if fw.State() != Armed {
		t.Fatal("tag did not arm after announcement")
	}
	slot := fw.ChosenSlot()
	if slot < 0 || slot >= 8 {
		t.Fatalf("chosen slot %d outside round", slot)
	}
	fired := 0
	for idx := 0; idx < 8; idx++ {
		data, ok := fw.OnSlot(idx)
		if ok {
			fired++
			if idx != slot {
				t.Fatalf("fired in slot %d, armed for %d", idx, slot)
			}
			if !bytes.Equal(data, []byte{1, 0, 1}) {
				t.Fatal("wrong data transmitted")
			}
		}
	}
	if fired != 1 {
		t.Fatalf("fired %d times, want exactly 1", fired)
	}
	if fw.State() != Idle {
		t.Fatal("tag not idle after round end")
	}
	if fw.QueueLen() != 0 {
		t.Fatal("queue not drained")
	}
}

func TestNoDataNoArm(t *testing.T) {
	scheme := plm.DefaultScheme()
	fw, _ := New(scheme, 2)
	for _, p := range pulsesFor(t, scheme, 4) {
		fw.OnPulse(p)
	}
	if fw.State() != Idle {
		t.Fatal("tag armed with empty queue")
	}
}

func TestAmbientPulsesIgnored(t *testing.T) {
	scheme := plm.DefaultScheme()
	fw, _ := New(scheme, 3)
	fw.Enqueue([]byte{1})
	// Ambient pulses with non-symbol durations must not arm the tag.
	for i := 0; i < 200; i++ {
		fw.OnPulse(tag.Pulse{Duration: 300e-6})
		fw.OnPulse(tag.Pulse{Duration: 2.2e-3})
	}
	if fw.State() != Idle {
		t.Fatal("ambient traffic armed the tag")
	}
	// The real announcement still gets through afterwards.
	for _, p := range pulsesFor(t, scheme, 6) {
		fw.OnPulse(p)
	}
	if fw.State() != Armed {
		t.Fatal("announcement lost after ambient noise")
	}
}

func TestReArmNextRound(t *testing.T) {
	scheme := plm.DefaultScheme()
	fw, _ := New(scheme, 4)
	fw.Enqueue([]byte{0})
	fw.Enqueue([]byte{1})
	for round := 0; round < 2; round++ {
		for _, p := range pulsesFor(t, scheme, 3) {
			fw.OnPulse(p)
		}
		if fw.State() != Armed {
			t.Fatalf("round %d: not armed", round)
		}
		for idx := 0; idx < 3; idx++ {
			fw.OnSlot(idx)
		}
	}
	if fw.QueueLen() != 0 {
		t.Fatalf("queue %d after two rounds", fw.QueueLen())
	}
}

func TestSlotDistributionRoughlyUniform(t *testing.T) {
	scheme := plm.DefaultScheme()
	counts := make([]int, 4)
	for seed := int64(0); seed < 400; seed++ {
		fw, _ := New(scheme, seed)
		fw.Enqueue([]byte{1})
		for _, p := range pulsesFor(t, scheme, 4) {
			fw.OnPulse(p)
		}
		if s := fw.ChosenSlot(); s >= 0 {
			counts[s]++
		}
	}
	for s, c := range counts {
		if c < 50 {
			t.Fatalf("slot %d chosen only %d/400 times; not uniform", s, c)
		}
	}
}

func TestNewRejectsBadScheme(t *testing.T) {
	bad := plm.DefaultScheme()
	bad.Preamble = nil
	if _, err := New(bad, 1); err == nil {
		t.Error("invalid scheme accepted")
	}
}
