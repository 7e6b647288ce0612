package core

import (
	"testing"

	"repro/internal/fec"
)

// FuzzSessionConfig draws random session configurations. Either NewSession
// rejects the config, or one packet runs through RunPacket and through
// RunPacketBatch(0, 1) without an error or panic and decodes no more bits
// than the tag embedded — an accepted config must be one the PHY can send.
func FuzzSessionConfig(f *testing.F) {
	// Payload sizes beyond the frame each PHY can send: NewSession used to
	// accept them, and every packet then failed in TX.
	f.Add(int(ZigBee), 6, 200, 4, int(DualReceiver), false, false, 0, 0, 0)
	f.Add(int(Bluetooth), 6, 300, 16, int(DualReceiver), false, false, 0, 0, 0)
	f.Add(int(WiFi), 6, 5000, 4, int(DualReceiver), false, false, 0, 0, 0)
	// A redundancy so large that no tag bit fits and the WiFi window of
	// Redundancy·NDBPS bits overflows int.
	f.Add(int(WiFi), 6, 1500, (1<<63)/24+1, int(DualReceiver), false, false, 0, 0, 0)
	// Payloads below the MAC header, and working configs in every mode.
	f.Add(int(WiFi), 6, 10, 4, int(DualReceiver), false, false, 0, 0, 0)
	f.Add(int(ZigBee), 6, 3, 4, int(DualReceiver), false, false, 0, 0, 0)
	f.Add(int(WiFi), 12, 24, 2, int(SingleReceiver), true, true, 15, 11, 1)
	f.Add(int(ZigBee), 6, 125, 1, int(SingleReceiver), false, true, 0, 0, 2)
	f.Add(int(Bluetooth), 6, 1, 1, int(DualReceiver), false, true, 0, 0, 0)
	f.Fuzz(func(t *testing.T, radio, rate, payload, redundancy, mode int, quaternary, coded bool, n, k, interleave int) {
		cfg := DefaultConfig(Radio(radio), 5)
		cfg.WiFiRateMbps = rate
		cfg.PayloadSize = payload
		cfg.Redundancy = redundancy
		cfg.ReceiverMode = ReceiverMode(mode)
		cfg.Quaternary = quaternary
		if coded {
			cfg.Coding = &fec.Config{N: n, K: k, Interleave: interleave}
		}
		s, err := NewSession(cfg)
		if err != nil {
			return
		}
		pr, err := s.RunPacket(make([]byte, s.Capacity()))
		if err != nil {
			t.Fatalf("%+v: RunPacket: %v", cfg, err)
		}
		prs, err := s.RunPacketBatch(0, 1)
		if err != nil {
			t.Fatalf("%+v: RunPacketBatch: %v", cfg, err)
		}
		for _, r := range []PacketResult{pr, prs[0]} {
			if len(r.DecodedTag) > r.TagBits {
				t.Fatalf("%+v: decoded %d tag bits, the tag embedded %d", cfg, len(r.DecodedTag), r.TagBits)
			}
		}
	})
}
