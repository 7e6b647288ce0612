package core

import (
	"runtime"
	"testing"
)

// TestRunParallelMatchesRun is the determinism contract of the run engine:
// for every radio, RunParallel must produce a SessionResult bit-identical
// to the serial Run regardless of worker count, because each packet draws
// from its own (seed, index)-derived RNG stream and the aggregation
// happens in index order.
//
// The WiFi cases also pin the ownership rule of the uncached excitation
// (DESIGN §8.2): with at least one batch per worker, four workers recycle
// excitationPool buffers mid-run, so a buffer handed back while its packet
// still read it would diverge here — and trip the detector under `make
// race`. Dual, single-receiver and quaternary decodes read the entry
// differently after the channel step, so all three run.
func TestRunParallelMatchesRun(t *testing.T) {
	const wifiPackets = 4 * batchSize
	cases := []struct {
		name    string
		radio   Radio
		dist    float64
		packets int
		set     func(*Config)
	}{
		// WiFi at mid-range mixes decoded and lost packets.
		{"wifi-dual", WiFi, 10, wifiPackets, func(*Config) {}},
		{"wifi-single", WiFi, 10, wifiPackets, func(c *Config) { c.ReceiverMode = SingleReceiver }},
		{"wifi-quaternary", WiFi, 10, wifiPackets, func(c *Config) { c.WiFiRateMbps, c.Quaternary = 12, true }},
		{"zigbee", ZigBee, 8, 3, func(*Config) {}},
		{"bluetooth", Bluetooth, 6, 3, func(*Config) {}},
	}
	for _, c := range cases {
		cfg := DefaultConfig(c.radio, c.dist)
		cfg.Seed = 99
		if c.radio == WiFi {
			cfg.PayloadSize = 400 // keep the sample count test-sized
		}
		c.set(&cfg)
		s, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := s.Run(c.packets)
		if err != nil {
			t.Fatal(err)
		}
		if serial.Packets != c.packets {
			t.Fatalf("%s: serial run counted %d packets, want %d", c.name, serial.Packets, c.packets)
		}
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			par, err := s.RunParallel(c.packets, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			if par != serial {
				t.Errorf("%s workers=%d: parallel %+v != serial %+v", c.name, workers, par, serial)
			}
		}
	}
}

// TestRunIsRepeatable pins the other half of the contract: re-running the
// same session (same seed) must reproduce the same aggregate, i.e. Run has
// no hidden cross-call state.
func TestRunIsRepeatable(t *testing.T) {
	cfg := DefaultConfig(ZigBee, 6)
	cfg.Seed = 5
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("repeat run diverged: %+v vs %+v", a, b)
	}
}

// TestRunPacketKeepsSequentialStream guards the legacy semantics: explicit
// RunPacket calls advance one shared session stream, so two identical
// calls generally see different fading/noise draws while a fresh session
// with the same seed reproduces the original sequence.
func TestRunPacketKeepsSequentialStream(t *testing.T) {
	mk := func() *Session {
		cfg := DefaultConfig(ZigBee, 6)
		cfg.Seed = 8
		s, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1, s2 := mk(), mk()
	bits := make([]byte, s1.Capacity())
	for i := range bits {
		bits[i] = byte(i) & 1
	}
	for i := 0; i < 3; i++ {
		a, err := s1.RunPacket(bits)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s2.RunPacket(bits)
		if err != nil {
			t.Fatal(err)
		}
		if a.Detected != b.Detected || a.BitErrors != b.BitErrors || a.Samples != b.Samples {
			t.Fatalf("call %d: sessions with equal seeds diverged: %+v vs %+v", i, a, b)
		}
	}
}
