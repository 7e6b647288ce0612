package core

import "testing"

func TestQuaternaryDoublesCapacity(t *testing.T) {
	binary := DefaultConfig(WiFi, 5)
	binary.WiFiRateMbps = 12
	sb, err := NewSession(binary)
	if err != nil {
		t.Fatal(err)
	}
	quad := binary
	quad.Quaternary = true
	sq, err := NewSession(quad)
	if err != nil {
		t.Fatal(err)
	}
	if sq.Capacity() != 2*sb.Capacity() {
		t.Fatalf("quaternary capacity %d, want 2x binary %d", sq.Capacity(), sb.Capacity())
	}
}

func TestQuaternaryEndToEnd(t *testing.T) {
	cfg := DefaultConfig(WiFi, 5)
	cfg.WiFiRateMbps = 12
	cfg.Quaternary = true
	cfg.Link.FadingK = 0
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if res.BER() > 0.01 {
		t.Fatalf("quaternary BER %.4f", res.BER())
	}
	// The eq. 5 scheme should roughly double the ~60 kbps binary rate.
	if thr := res.ThroughputBps() / 1e3; thr < 90 {
		t.Fatalf("quaternary throughput %.1f kbps, want ~110", thr)
	}
}

func TestQuaternaryExactSymbols(t *testing.T) {
	// Every 2-bit pattern must round trip: exercises all four rotations.
	cfg := DefaultConfig(WiFi, 3)
	cfg.WiFiRateMbps = 12
	cfg.Quaternary = true
	cfg.Link.FadingK = 0
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte{0, 0, 0, 1, 1, 0, 1, 1, 1, 1, 0, 1, 0, 0, 1, 0}
	pr, err := s.RunPacket(msg)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Decoded || pr.TagBits != len(msg) {
		t.Fatalf("decoded=%v bits=%d", pr.Decoded, pr.TagBits)
	}
	for i := range msg {
		if pr.DecodedTag[i] != msg[i] {
			t.Fatalf("bit %d: got %d want %d", i, pr.DecodedTag[i], msg[i])
		}
	}
}

func TestQuaternaryValidation(t *testing.T) {
	cfg := DefaultConfig(WiFi, 5) // 6 Mbps BPSK
	cfg.Quaternary = true
	if _, err := NewSession(cfg); err == nil {
		t.Error("quaternary on BPSK accepted")
	}
	zb := DefaultConfig(ZigBee, 5)
	zb.Quaternary = true
	if _, err := NewSession(zb); err == nil {
		t.Error("quaternary on ZigBee accepted")
	}
}
