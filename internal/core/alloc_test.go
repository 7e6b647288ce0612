package core

import (
	"testing"

	"repro/internal/simd"
	"repro/internal/waveform"
)

// forEachDispatchMode runs fn once per available dispatch path (pure Go
// always; the asm kernels when this build+CPU has them), restoring the
// ambient mode afterwards. The alloc pins below must hold bit-exactly in
// both modes: the SIMD kernels are //go:noescape leaf calls over
// caller-owned memory, so a divergence means a kernel started escaping
// its arguments.
func forEachDispatchMode(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	prev := simd.Enabled()
	defer simd.SetEnabled(prev)
	modes := []bool{false}
	if simd.HWMode() != "" {
		modes = append(modes, true)
	}
	for _, on := range modes {
		simd.SetEnabled(on)
		t.Run("dispatch="+simd.Mode(), fn)
	}
}

// TestRunPacketAllocs pins the steady-state heap traffic of the full
// per-packet pipeline for every radio (TX synthesis included — no
// waveform cache configured). The counts cover only the escaping
// results: the random payload, the frame-bit reference, the
// synthesised waveform, which the tag translates in place (except
// WiFi's, whose excitation buffer cycles through excitationPool), and
// the decoded frame and feature slices; all filter/convolution
// scratch, ZigBee's derotated frame and Bluetooth's discriminator
// output live in pooled arenas and every pool on the path is a
// GC-stable signal.FreeList, so the counts are exact integers, not
// budgets. A change in either direction means the fast
// path's allocation behaviour moved: re-measure and update the pin
// alongside the change that caused it.
func TestRunPacketAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are not meaningful under the race detector")
	}
	for _, tc := range []struct {
		radio Radio
		want  float64 // measured by BenchmarkSessionRunPacket
	}{
		{WiFi, 12},
		{ZigBee, 15},
		{Bluetooth, 7},
	} {
		t.Run(tc.radio.String(), func(t *testing.T) {
			forEachDispatchMode(t, func(t *testing.T) {
				cfg := DefaultConfig(tc.radio, 5)
				s, err := NewSession(cfg)
				if err != nil {
					t.Fatal(err)
				}
				tagBits := make([]byte, s.Capacity())
				for i := range tagBits {
					tagBits[i] = byte(i) & 1
				}
				// Warm the arena and session pools so the measurement sees
				// steady state.
				for k := 0; k < 3; k++ {
					if _, err := s.RunPacket(tagBits); err != nil {
						t.Fatal(err)
					}
				}
				got := testing.AllocsPerRun(20, func() {
					if _, err := s.RunPacket(tagBits); err != nil {
						t.Fatal(err)
					}
				})
				if got != tc.want {
					t.Fatalf("%v RunPacket allocates %.1f/op, want exactly %.0f", tc.radio, got, tc.want)
				}
			})
		})
	}
}

// TestRunPacketBatchAllocs pins the batch pipeline the same way: one
// RunPacketBatch call of batchSize packets over a warm waveform
// cache, exact equality per call so any increase fails. The benchgate
// alloc budget alone allows +2 per benchmark, which is how the ZigBee
// alloc drift in the BENCH_DSP trajectory stayed invisible — only an
// exact in-repo pin holds the line. Per-call counts: WiFi 81 = 8
// packets × 10 escaping results + one batch-level result slice, ZigBee
// 65 = 8 × 8 + 1 (its CFO-derotated frame copy is arena scratch), and
// Bluetooth escapes fewer still (its discriminator output and power
// snapshot are arena scratch too). The tag translator is built
// once per session, so neither pin pays for it per packet.
func TestRunPacketBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are not meaningful under the race detector")
	}
	for _, tc := range []struct {
		radio Radio
		want  float64 // allocations per RunPacketBatch(0, batchSize) call
	}{
		{WiFi, 81},
		{ZigBee, 65},
		{Bluetooth, 38},
	} {
		t.Run(tc.radio.String(), func(t *testing.T) {
			forEachDispatchMode(t, func(t *testing.T) {
				cfg := DefaultConfig(tc.radio, 5)
				cfg.Waveforms = waveform.New(0)
				cfg.ContentSeed = 7 // fixed content: replayed indices hit the cache
				s, err := NewSession(cfg)
				if err != nil {
					t.Fatal(err)
				}
				// Warm pools and populate the waveform cache for the batch.
				if _, err := s.RunPacketBatch(0, batchSize); err != nil {
					t.Fatal(err)
				}
				got := testing.AllocsPerRun(10, func() {
					if _, err := s.RunPacketBatch(0, batchSize); err != nil {
						t.Fatal(err)
					}
				})
				if got != tc.want {
					t.Fatalf("%v RunPacketBatch allocates %.1f/call, want exactly %.0f", tc.radio, got, tc.want)
				}
			})
		})
	}
}
