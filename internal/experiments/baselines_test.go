package experiments

import "testing"

func TestRunHitchHikePacketClean(t *testing.T) {
	// Enough tag data to fill the packet's capacity.
	tagBits := make([]byte, 2000)
	for i := range tagBits {
		tagBits[i] = byte((i * 5 / 7) & 1)
	}
	res, err := RunHitchHikePacket(200, tagBits)
	if err != nil {
		t.Fatal(err)
	}
	if res.TagBitsPerPacket < 300 {
		t.Fatalf("embedded %d bits, want the full capacity (~404)", res.TagBitsPerPacket)
	}
	if res.BitErrors != 0 {
		t.Fatalf("%d bit errors on a clean channel", res.BitErrors)
	}
	// 4 DBPSK bits per tag bit at 1 Mbps -> ~250 kbps in-packet rate
	// (HitchHike's short-range regime).
	if kbps := float64(res.TagBitsPerPacket) / res.PacketSeconds / 1e3; kbps < 150 || kbps > 260 {
		t.Fatalf("hitchhike in-packet rate %.1f kbps, want ~250", kbps)
	}
	if _, err := RunHitchHikePacket(0, tagBits); err == nil {
		t.Error("zero payload accepted")
	}
}

func TestRunHitchHikePacketCapacityClamp(t *testing.T) {
	long := make([]byte, 100000)
	res, err := RunHitchHikePacket(50, long)
	if err != nil {
		t.Fatal(err)
	}
	if res.TagBitsPerPacket >= len(long) {
		t.Fatal("capacity clamp missing")
	}
}

func TestBaselineAvailability(t *testing.T) {
	pts, err := BaselineAvailability(Options{PacketsPerPoint: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	byLegacy := map[float64]BaselinePoint{}
	for _, p := range pts {
		byLegacy[p.LegacyAirtimeFraction] = p
	}
	// All-legacy channel: HitchHike dominates (its in-packet rate is
	// higher), FreeRider starves.
	if p := byLegacy[1.0]; p.HitchHikeKbps <= p.FreeRiderKbps {
		t.Fatalf("all-legacy: hitchhike %.1f <= freerider %.1f", p.HitchHikeKbps, p.FreeRiderKbps)
	}
	// Realistic modern channel (1% legacy): FreeRider wins by >10x.
	if p := byLegacy[0.01]; p.FreeRiderKbps < 10*p.HitchHikeKbps {
		t.Fatalf("modern channel: freerider %.1f vs hitchhike %.1f, want >10x", p.FreeRiderKbps, p.HitchHikeKbps)
	}
	// No legacy traffic at all: HitchHike is dead.
	if p := byLegacy[0.0]; p.HitchHikeKbps != 0 {
		t.Fatalf("hitchhike %.1f kbps with zero 11b traffic", p.HitchHikeKbps)
	}
	// Crossover exists between 20% and 50% legacy share.
	if byLegacy[0.5].FreeRiderKbps > byLegacy[0.5].HitchHikeKbps {
		t.Error("at 50% legacy, hitchhike should still win")
	}
	if byLegacy[0.1].FreeRiderKbps < byLegacy[0.1].HitchHikeKbps {
		t.Error("at 10% legacy, freerider should win")
	}
}
