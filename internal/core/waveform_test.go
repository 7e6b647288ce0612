package core

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/waveform"
)

// TestWaveformCacheBitIdentical is the correctness contract of TX
// memoization: attaching a waveform cache must not change a single bit of
// any SessionResult, for any radio, including the second pass that runs
// entirely on warm hits.
func TestWaveformCacheBitIdentical(t *testing.T) {
	cases := []struct {
		radio Radio
		dist  float64
	}{
		{WiFi, 10},
		{ZigBee, 8},
		{Bluetooth, 6},
	}
	const packets = 3
	for _, c := range cases {
		cfg := DefaultConfig(c.radio, c.dist)
		cfg.Seed = 99
		if c.radio == WiFi {
			cfg.PayloadSize = 400
		}
		s, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := s.Run(packets)
		if err != nil {
			t.Fatal(err)
		}

		cfg.Waveforms = waveform.New(0)
		cs, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := cs.Run(packets)
		if err != nil {
			t.Fatal(err)
		}
		if cold != plain {
			t.Errorf("%v: cold cached run %+v != uncached %+v", c.radio, cold, plain)
		}
		st := cfg.Waveforms.Stats()
		if st.Misses != packets || st.Hits != 0 {
			t.Errorf("%v: cold pass stats %+v, want %d misses", c.radio, st, packets)
		}
		warm, err := cs.Run(packets)
		if err != nil {
			t.Fatal(err)
		}
		if warm != plain {
			t.Errorf("%v: warm cached run %+v != uncached %+v", c.radio, warm, plain)
		}
		if st := cfg.Waveforms.Stats(); st.Hits != packets {
			t.Errorf("%v: warm pass stats %+v, want %d hits", c.radio, st, packets)
		}
	}
}

// TestWaveformCacheQuaternaryBitIdentical covers the eq. 5 path, whose
// coded reference stream moves from lazy per-packet reconstruction to the
// cache entry.
func TestWaveformCacheQuaternaryBitIdentical(t *testing.T) {
	cfg := DefaultConfig(WiFi, 4)
	cfg.WiFiRateMbps = 12
	cfg.Quaternary = true
	cfg.PayloadSize = 400
	cfg.Seed = 21
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := s.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if plain.TagBitsDecoded == 0 {
		t.Fatal("quaternary run decoded nothing; test is vacuous")
	}
	cfg.Waveforms = waveform.New(0)
	cs, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		got, err := cs.Run(3)
		if err != nil {
			t.Fatal(err)
		}
		if got != plain {
			t.Errorf("pass %d: cached %+v != uncached %+v", pass, got, plain)
		}
	}
}

// TestWaveformCacheShardedBitIdentical pins the cache's correctness
// contract for every radio under two byte budgets: the default budget and
// a one-byte budget that rejects every entry must produce byte-identical
// SessionResults on both the cold pass (synthesis + insert paths) and the
// warm pass (lookup path), and both must match the uncached run. The
// budget may only change which entries survive, never the bits an entry
// replays.
func TestWaveformCacheShardedBitIdentical(t *testing.T) {
	cases := []struct {
		radio Radio
		dist  float64
	}{
		{WiFi, 10},
		{ZigBee, 8},
		{Bluetooth, 6},
	}
	const packets = 3
	for _, c := range cases {
		cfg := DefaultConfig(c.radio, c.dist)
		cfg.Seed = 99
		if c.radio == WiFi {
			cfg.PayloadSize = 400
		}
		s, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := s.Run(packets)
		if err != nil {
			t.Fatal(err)
		}
		for _, capBytes := range []int64{0, 1} {
			cfg.Waveforms = waveform.New(capBytes)
			cs, err := NewSession(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ {
				got, err := cs.Run(packets)
				if err != nil {
					t.Fatal(err)
				}
				if got != plain {
					t.Errorf("%v cap=%d pass %d: cached run %+v != uncached %+v",
						c.radio, capBytes, pass, got, plain)
				}
			}
			st := cfg.Waveforms.Stats()
			if int(st.Hits+st.Misses) != 2*packets {
				t.Errorf("%v cap=%d: stats %+v, want %d lookups", c.radio, capBytes, st, 2*packets)
			}
			if capBytes == 0 && st.Misses != packets {
				t.Errorf("%v: stats %+v, want %d misses total", c.radio, st, packets)
			}
			if capBytes == 1 && (st.Hits != 0 || st.Entries != 0) {
				t.Errorf("%v: a 1-byte cache must store nothing, stats %+v", c.radio, st)
			}
		}
	}
}

// TestWaveformCacheSharedAcrossSessions pins the cross-session reuse the
// cache exists for: two sessions with the same seed (hence identical packet
// content) but different link distances share every waveform — the second
// session runs entirely on hits while still seeing its own channel.
func TestWaveformCacheSharedAcrossSessions(t *testing.T) {
	c := waveform.New(0)
	const packets = 3
	var results [2]SessionResult
	for i, dist := range []float64{6, 45} {
		cfg := DefaultConfig(WiFi, dist)
		cfg.PayloadSize = 400
		cfg.Seed = 99
		cfg.Waveforms = c
		s, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if results[i], err = s.Run(packets); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Misses != packets || st.Hits != packets {
		t.Fatalf("stats %+v: want %d misses then %d hits", st, packets, packets)
	}
	// 45 m is past the link collapse, so the far session must lose packets
	// the near one decodes — proof the shared waveforms still ran through
	// each session's own channel.
	if results[1].PacketsLost <= results[0].PacketsLost {
		t.Fatalf("far session lost %d packets vs near %d; channel draws are not independent",
			results[1].PacketsLost, results[0].PacketsLost)
	}
}

// TestContentSeedRunMatchesRunParallel extends the determinism contract to
// the split-stream mode: with a ContentSeed, Run and RunParallel must still
// agree for every worker count.
func TestContentSeedRunMatchesRunParallel(t *testing.T) {
	cfg := DefaultConfig(WiFi, 10)
	cfg.PayloadSize = 400
	cfg.Seed = 99
	cfg.ContentSeed = 17
	cfg.Waveforms = waveform.New(0)
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const packets = 3
	serial, err := s.Run(packets)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		par, err := s.RunParallel(packets, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par != serial {
			t.Errorf("workers=%d: parallel %+v != serial %+v", workers, par, serial)
		}
	}
}

// TestContentSeedSharesWaveformsAcrossSeeds is the sweep scenario: points
// with different channel seeds but one ContentSeed synthesise each packet
// once and replay it everywhere else.
func TestContentSeedSharesWaveformsAcrossSeeds(t *testing.T) {
	c := waveform.New(0)
	const packets = 3
	var results [2]SessionResult
	for i, seed := range []int64{101, 202} {
		// A marginal distance: whether packets survive depends on the
		// fading draw, so distinct channel seeds show up in the aggregate.
		cfg := DefaultConfig(WiFi, 25)
		cfg.PayloadSize = 400
		cfg.Seed = seed
		cfg.ContentSeed = 17
		cfg.Waveforms = c
		s, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if results[i], err = s.Run(packets); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Misses != packets || st.Hits != packets {
		t.Fatalf("stats %+v: want %d misses then %d hits", st, packets, packets)
	}
	if results[0].PacketsLost == results[1].PacketsLost {
		t.Fatalf("both seeds lost %d packets; channel draws are not independent", results[0].PacketsLost)
	}
}

// TestRunPacketCacheKeepsScramblerRotation pins the one piece of TX state a
// WiFi cache hit must replay: the sequential RunPacket path rotates the
// scrambler seed per packet, and a hit has to advance it exactly like a
// synthesis would, or the cached and uncached sessions diverge from the
// second packet on.
func TestRunPacketCacheKeepsScramblerRotation(t *testing.T) {
	run := func(c *waveform.Cache) []PacketResult {
		cfg := DefaultConfig(WiFi, 6)
		cfg.PayloadSize = 400
		cfg.Seed = 5
		cfg.Waveforms = c
		s, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tagBits := make([]byte, s.Capacity())
		for i := range tagBits {
			tagBits[i] = byte(i % 2)
		}
		out := make([]PacketResult, 3)
		for i := range out {
			if out[i], err = s.RunPacket(tagBits); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	plain := run(nil)
	c := waveform.New(0)
	cold := run(c)
	warm := run(c) // same session config ⇒ every packet is a warm hit
	if st := c.Stats(); st.Hits != 3 || st.Misses != 3 {
		t.Fatalf("stats %+v: want 3 misses then 3 hits", st)
	}
	for i := range plain {
		if !reflect.DeepEqual(plain[i], cold[i]) || !reflect.DeepEqual(plain[i], warm[i]) {
			t.Errorf("packet %d: plain %+v, cold %+v, warm %+v", i, plain[i], cold[i], warm[i])
		}
	}
}
