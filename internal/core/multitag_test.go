package core

import (
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/waveform"
)

func collisionSession(t *testing.T) *Session {
	t.Helper()
	cfg := DefaultConfig(WiFi, 5)
	cfg.Link.FadingK = 0
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func randomTagBits(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rng.Intn(2))
	}
	return out
}

func TestCollisionSingleTagIsClean(t *testing.T) {
	s := collisionSession(t)
	data := randomTagBits(s.Capacity(), 1)
	res, err := s.RunCollision([][]byte{data})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Fatal("single tag not detected")
	}
	if res.PerTagBER[0] > 0.01 {
		t.Fatalf("single-tag BER %.3f, want ~0", res.PerTagBER[0])
	}
}

func TestCollisionTwoTagsDestroysBoth(t *testing.T) {
	s := collisionSession(t)
	a := randomTagBits(s.Capacity(), 2)
	b := randomTagBits(s.Capacity(), 3)
	res, err := s.RunCollision([][]byte{a, b})
	if err != nil {
		t.Fatal(err)
	}
	// Whatever the receiver makes of the superposition, neither tag's data
	// should come through cleanly: this is the MAC's collision premise.
	for i, ber := range res.PerTagBER {
		if ber < 0.15 {
			t.Fatalf("tag %d decoded through a collision with BER %.3f", i, ber)
		}
	}
}

func TestCollisionValidation(t *testing.T) {
	s := collisionSession(t)
	if _, err := s.RunCollision(nil); err == nil {
		t.Error("empty tag set accepted")
	}
	zb, err := NewSession(DefaultConfig(ZigBee, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zb.RunCollision([][]byte{{1}}); err == nil {
		t.Error("non-WiFi collision accepted")
	}
}

// TestCollisionOneTagIsRunPacket: a single tag's collision run is one
// packet of the pipeline RunPacket runs — the same draws, capture and
// decode — so twin sessions on one seed, fed one tag stream, score the
// same BER packet after packet, in either receiver mode, in the
// quaternary scheme, with a waveform cache and under channel faults.
func TestCollisionOneTagIsRunPacket(t *testing.T) {
	impulsive, err := faults.Parse("impulsive")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		set  func(*Config)
	}{
		{"dual", func(*Config) {}},
		{"single", func(c *Config) { c.ReceiverMode = SingleReceiver }},
		{"quaternary", func(c *Config) { c.WiFiRateMbps, c.Quaternary = 12, true }},
		{"cached", func(c *Config) { c.Waveforms = waveform.New(0) }},
		{"impulsive", func(c *Config) { c.Faults = impulsive }},
	}
	erred := 0
	for _, tc := range cases {
		for _, snr := range []float64{5, 12} { // in the detection wall, above it
			cfg := DefaultConfig(WiFi, 8)
			cfg.PayloadSize = 400
			cfg.Seed = 7
			cfg.Link.NoiseFloor = cfg.Link.BackscatterRSSI() - snr
			tc.set(&cfg)
			coll, err := NewSession(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pkt, err := NewSession(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 6; i++ {
				data := randomTagBits(coll.Capacity(), int64(i))
				res, err := coll.RunCollision([][]byte{data})
				if err != nil {
					t.Fatal(err)
				}
				pr, err := pkt.RunPacket(data)
				if err != nil {
					t.Fatal(err)
				}
				want := 1.0
				if n := len(pr.DecodedTag); pr.Decoded && n > 0 {
					want = float64(pr.BitErrors) / float64(n)
				}
				if res.Detected != pr.Decoded || res.PerTagBER[0] != want {
					t.Fatalf("%s at %g dB, packet %d: collision detected=%v BER %g, RunPacket decoded=%v BER %g",
						tc.name, snr, i, res.Detected, res.PerTagBER[0], pr.Decoded, want)
				}
				if want > 0 && want < 1 {
					erred++
				}
			}
		}
	}
	if erred == 0 {
		t.Fatal("no packet decoded with a partial BER: the comparison never saw a bit error")
	}
}

// TestCollisionBrownoutIsLost: on a browned-out slot the tag has no charge
// to reflect, so a collision run, like RunPacket, loses it before any
// draw — undetected, every tag at BER 1 — and the twin sessions' later
// packets stay identical.
func TestCollisionBrownoutIsLost(t *testing.T) {
	brownout, err := faults.Parse("brownout-tag")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(WiFi, 8)
	cfg.PayloadSize = 400
	cfg.Seed = 7
	cfg.Faults = brownout
	var sessions [3]*Session // one-tag collision, packet twin, two-tag collision
	for i := range sessions {
		if sessions[i], err = NewSession(cfg); err != nil {
			t.Fatal(err)
		}
	}
	coll, pkt, pair := sessions[0], sessions[1], sessions[2]
	browned, decodedAfter := 0, 0
	for i := 0; i < 30; i++ {
		data := randomTagBits(coll.Capacity(), int64(i))
		res, err := coll.RunCollision([][]byte{data})
		if err != nil {
			t.Fatal(err)
		}
		two, err := pair.RunCollision([][]byte{data, randomTagBits(coll.Capacity(), int64(100+i))})
		if err != nil {
			t.Fatal(err)
		}
		pr, err := pkt.RunPacket(data)
		if err != nil {
			t.Fatal(err)
		}
		if pr.Fault.SkipReflection {
			browned++
			for _, r := range []MultiTagResult{res, two} {
				if r.Detected {
					t.Fatalf("slot %d: browned-out collision detected", i)
				}
				for j, ber := range r.PerTagBER {
					if ber != 1 {
						t.Fatalf("slot %d: browned-out tag %d of %d at BER %g, want 1", i, j, len(r.PerTagBER), ber)
					}
				}
			}
		} else if browned > 0 && pr.Decoded {
			decodedAfter++
		}
		want := 1.0
		if n := len(pr.DecodedTag); pr.Decoded && n > 0 {
			want = float64(pr.BitErrors) / float64(n)
		}
		if res.Detected != pr.Decoded || res.PerTagBER[0] != want {
			t.Fatalf("slot %d: collision detected=%v BER %g, RunPacket decoded=%v BER %g",
				i, res.Detected, res.PerTagBER[0], pr.Decoded, want)
		}
	}
	if browned == 0 || decodedAfter == 0 {
		t.Fatalf("%d browned-out slots, %d decoded packets after the first: the run tests nothing", browned, decodedAfter)
	}
}
