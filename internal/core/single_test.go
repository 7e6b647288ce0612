package core

import (
	"runtime"
	"testing"

	"repro/internal/waveform"
)

// singleConfigs covers every single-receiver decode path: the three
// radios' binary features plus the WiFi quaternary rotation features.
func singleConfigs(dist float64) []Config {
	wifi := DefaultConfig(WiFi, dist)
	wifi.PayloadSize = 400
	zb := DefaultConfig(ZigBee, dist)
	bt := DefaultConfig(Bluetooth, dist)
	quat := DefaultConfig(WiFi, dist)
	quat.PayloadSize = 400
	quat.Quaternary = true
	quat.WiFiRateMbps = 12
	out := []Config{wifi, zb, bt, quat}
	for i := range out {
		out[i].ReceiverMode = SingleReceiver
		out[i].Seed = 21
	}
	return out
}

// TestSingleReceiverEndToEnd: at close range every radio must decode the
// tag stream from the backscattered capture alone, error-free, and a
// sequential packet must decode every bit the tag sent.
func TestSingleReceiverEndToEnd(t *testing.T) {
	for _, cfg := range singleConfigs(1) {
		s, err := NewSession(cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Radio, err)
		}
		res, err := s.Run(8)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Radio, err)
		}
		if res.PacketsLost != 0 {
			t.Errorf("%v quat=%v: lost %d/%d packets at 1 m", cfg.Radio, cfg.Quaternary, res.PacketsLost, res.Packets)
		}
		if res.TagBitsDecoded == 0 || res.BitErrors != 0 {
			t.Errorf("%v quat=%v: %d/%d bit errors at 1 m", cfg.Radio, cfg.Quaternary, res.BitErrors, res.TagBitsDecoded)
		}
		if res.DroppedElements != 0 {
			t.Errorf("%v quat=%v: %d dropped elements on clean decode", cfg.Radio, cfg.Quaternary, res.DroppedElements)
		}

		bits := make([]byte, s.Capacity())
		for i := range bits {
			bits[i] = byte(i>>1) & 1
		}
		pr, err := s.RunPacket(bits)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Radio, err)
		}
		if !pr.Decoded {
			t.Fatalf("%v quat=%v: packet not decoded", cfg.Radio, cfg.Quaternary)
		}
		if len(pr.DecodedTag) != pr.TagBits || pr.BitErrors != 0 {
			t.Errorf("%v quat=%v: decoded %d of %d tag bits with %d errors",
				cfg.Radio, cfg.Quaternary, len(pr.DecodedTag), pr.TagBits, pr.BitErrors)
		}
	}
}

// TestSingleRunParallelMatchesRun extends the determinism contract to the
// single-receiver mode: serial and parallel runs must agree bit for bit
// at every worker count, for every decode path.
func TestSingleRunParallelMatchesRun(t *testing.T) {
	const packets = 3
	for _, cfg := range singleConfigs(8) { // mid-range: mixes decoded and lost
		s, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := s.Run(packets)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			par, err := s.RunParallel(packets, workers)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", cfg.Radio, workers, err)
			}
			if par != serial {
				t.Errorf("%v quat=%v workers=%d: parallel %+v != serial %+v",
					cfg.Radio, cfg.Quaternary, workers, par, serial)
			}
		}
	}
}

// TestSingleReceiverUnmodulatedAllZero: a packet whose tag bits are all
// zero leaves the excitation untouched, so the differential decode must
// report all-zero tag bits — the self-consistency anchor of the decision
// rule (no reference stream means "no transitions" is the only evidence
// of an idle tag).
func TestSingleReceiverUnmodulatedAllZero(t *testing.T) {
	for _, cfg := range singleConfigs(1) {
		s, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := s.RunPacket(make([]byte, s.Capacity()))
		if err != nil {
			t.Fatal(err)
		}
		if !pr.Decoded {
			t.Fatalf("%v quat=%v: unmodulated packet not decoded", cfg.Radio, cfg.Quaternary)
		}
		for i, b := range pr.DecodedTag {
			if b != 0 {
				t.Fatalf("%v quat=%v: unmodulated stream decoded bit %d at %d",
					cfg.Radio, cfg.Quaternary, b, i)
			}
		}
	}
}

// TestSingleReceiverValidation: the mode gate in validate().
func TestSingleReceiverValidation(t *testing.T) {
	cfg := DefaultConfig(WiFi, 2)
	cfg.ReceiverMode = SingleReceiver
	cfg.PilotPhaseTracking = true
	if _, err := NewSession(cfg); err == nil {
		t.Error("single receiver with pilot phase tracking accepted (tracking erases the feature)")
	}
	cfg = DefaultConfig(WiFi, 2)
	cfg.ReceiverMode = ReceiverMode(7)
	if _, err := NewSession(cfg); err == nil {
		t.Error("unknown receiver mode accepted")
	}
}

// TestSingleModeSharesWaveformCache: the tag's transmission is identical
// in both modes, so a single-mode session must replay waveforms a
// dual-mode session synthesised (mode never enters waveform keys).
func TestSingleModeSharesWaveformCache(t *testing.T) {
	waves := waveform.New(0)
	mk := func(mode ReceiverMode) SessionResult {
		cfg := DefaultConfig(ZigBee, 2)
		cfg.Seed = 33
		cfg.ContentSeed = 44
		cfg.Waveforms = waves
		cfg.ReceiverMode = mode
		s, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(4)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	mk(DualReceiver)
	after := waves.Stats()
	if after.Misses == 0 {
		t.Fatal("dual run synthesised nothing")
	}
	mk(SingleReceiver)
	final := waves.Stats()
	if final.Misses != after.Misses {
		t.Errorf("single-mode run re-synthesised %d waveforms; modes must share the cache",
			final.Misses-after.Misses)
	}
	if final.Hits <= after.Hits {
		t.Error("single-mode run never hit the shared cache")
	}
}
