package plm

import (
	"math"
	"testing"
)

func TestRepacketizeDrainsTrafficFirst(t *testing.T) {
	s := DefaultScheme()
	// Plenty of pending traffic: every burst should be pure user data.
	plan, err := s.Repacketize(1000000, []byte{1, 1, 0, 0}, 6e6, 60e-6)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Efficiency < 0.9 {
		t.Fatalf("efficiency %.2f with a busy network, want >= 0.9", plan.Efficiency)
	}
	if plan.LeftoverBytes >= 1000000 {
		t.Fatal("no traffic drained")
	}
}

func TestRepacketizeIdleNetworkPadsEverything(t *testing.T) {
	s := DefaultScheme()
	plan, err := s.Repacketize(0, []byte{1, 0}, 6e6, 60e-6)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Efficiency != 0 {
		t.Fatalf("efficiency %g on an idle network, want 0", plan.Efficiency)
	}
}

func TestRepacketizeConservesBytes(t *testing.T) {
	s := DefaultScheme()
	const pending = 3000
	const rate = 6e6
	msg := []byte{1, 0, 1, 1, 0}
	plan, err := s.Repacketize(pending, msg, rate, 60e-6)
	if err != nil {
		t.Fatal(err)
	}
	// The airtime Efficiency credits to user traffic carries exactly the
	// bytes that left the queue.
	var airtime float64
	for _, d := range s.EncodeMessage(msg) {
		airtime += d
	}
	carried := plan.Efficiency * airtime * rate / 8
	if math.Abs(carried+float64(plan.LeftoverBytes)-pending) > 1e-6 {
		t.Fatalf("bytes not conserved: %g carried + %d leftover != %d", carried, plan.LeftoverBytes, pending)
	}
	if plan.LeftoverBytes == pending {
		t.Fatal("no traffic drained")
	}
}

func TestRepacketizeValidation(t *testing.T) {
	s := DefaultScheme()
	if _, err := s.Repacketize(10, []byte{1}, 0, 60e-6); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := s.Repacketize(10, []byte{1}, 6e6, s.L0); err == nil {
		t.Error("overhead >= L0 accepted")
	}
	if _, err := s.Repacketize(-1, []byte{1}, 6e6, 0); err == nil {
		t.Error("negative pending accepted")
	}
	bad := s
	bad.Preamble = nil
	if _, err := bad.Repacketize(10, []byte{1}, 6e6, 0); err == nil {
		t.Error("invalid scheme accepted")
	}
}
