package core

import (
	"testing"

	"repro/internal/fec"
)

// TestCodedRunMatchesRunParallel: with coding enabled the aggregate result
// must stay bit-identical across worker counts.
func TestCodedRunMatchesRunParallel(t *testing.T) {
	for _, radio := range []Radio{WiFi, ZigBee, Bluetooth} {
		cfg := DefaultConfig(radio, 8)
		cfg.Seed = 42
		coding := fec.DefaultConfig()
		cfg.Coding = &coding
		s, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const n = 6
		serial, err := s.Run(n)
		if err != nil {
			t.Fatal(err)
		}
		if serial.DataBitsDecoded == 0 {
			t.Fatalf("%v: clean 8 m link decoded no payload bits", radio)
		}
		for _, workers := range []int{1, 3, 0} {
			par, err := s.RunParallel(n, workers)
			if err != nil {
				t.Fatal(err)
			}
			if par != serial {
				t.Fatalf("%v workers=%d: parallel result diverges\nserial:   %+v\nparallel: %+v",
					radio, workers, serial, par)
			}
		}
	}
}

// TestCodedChannelAlignment: a coded and an uncoded session at the same
// seed must see the identical channel — same detection outcomes, same
// sample counts — because the coded path only rewrites the transmitted
// bit content, never the draw order. This is the foundation of the soak's
// coded-residual invariant.
func TestCodedChannelAlignment(t *testing.T) {
	cfg := DefaultConfig(WiFi, 14)
	cfg.Seed = 7
	un, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coding := fec.DefaultConfig()
	cfg.Coding = &coding
	co, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		pu, err := un.runPacketAt(i)
		if err != nil {
			t.Fatal(err)
		}
		pc, err := co.runPacketAt(i)
		if err != nil {
			t.Fatal(err)
		}
		if pu.Detected != pc.Detected || pu.Samples != pc.Samples || pu.AirTime != pc.AirTime {
			t.Fatalf("packet %d: channel realisation diverges: uncoded %+v coded %+v", i, pu, pc)
		}
	}
}

// TestCodedRecoversChannelErrors: at a distance where the raw channel
// takes occasional bit errors, RS correction must strictly reduce the
// payload error rate relative to the raw stream.
func TestCodedRecoversChannelErrors(t *testing.T) {
	cfg := DefaultConfig(WiFi, 8)
	cfg.Seed = 11
	// 7.5 dB sits just above the detection knee: surviving packets take
	// occasional 1-3 symbol hits, squarely inside a t=3 code's radius.
	cfg.Link.NoiseFloor = cfg.Link.BackscatterRSSI() - 7.5
	cfg.Coding = &fec.Config{N: 15, K: 9}
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(60)
	if err != nil {
		t.Fatal(err)
	}
	if res.BitErrors == 0 {
		t.Fatal("operating point too clean: raw channel took no errors")
	}
	if res.CorrectedSymbols == 0 {
		t.Fatalf("raw errors %d but RS corrected nothing (failures=%d)",
			res.BitErrors, res.RSFailures)
	}
	if res.CodedBER() >= res.BER() {
		t.Fatalf("coded BER %.4g not better than raw BER %.4g (corrected=%d failures=%d)",
			res.CodedBER(), res.BER(), res.CorrectedSymbols, res.RSFailures)
	}
}

// TestSetQuaternaryReplansLayout: toggling the scheme must re-derive the
// coded layout for the new capacity.
func TestSetQuaternaryReplansLayout(t *testing.T) {
	cfg := DefaultConfig(WiFi, 8)
	cfg.WiFiRateMbps = 12
	coding := fec.DefaultConfig()
	cfg.Coding = &coding
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lay1, ok := s.Layout()
	if !ok {
		t.Fatal("no layout with coding enabled")
	}
	if err := s.SetQuaternary(true); err != nil {
		t.Fatal(err)
	}
	lay2, ok := s.Layout()
	if !ok {
		t.Fatal("layout lost after SetQuaternary")
	}
	if lay2.CodedBits() > s.Capacity() {
		t.Fatalf("layout %d coded bits exceeds capacity %d", lay2.CodedBits(), s.Capacity())
	}
	if s.DataCapacity() != lay2.DataBits() {
		t.Fatalf("DataCapacity %d != layout %d", s.DataCapacity(), lay2.DataBits())
	}
	_ = lay1
}
