package core

import (
	"testing"

	"repro/internal/waveform"
)

// BenchmarkSessionRunPacket times one full sample-level backscatter packet
// (ambient TX → tag codeword translation → channel → receiver → tag
// decode) per radio on a warm Session. bench-dsp tracks its ns/op and
// allocs/op; the allocs figure is the steady-state heap traffic of the
// whole per-packet pipeline, so regressions in any pooled fast path show
// up here even when the kernel-level zero-alloc tests still pass.
func BenchmarkSessionRunPacket(b *testing.B) {
	for _, radio := range []Radio{WiFi, ZigBee, Bluetooth} {
		b.Run(radio.String(), func(b *testing.B) {
			cfg := DefaultConfig(radio, 5)
			s, err := NewSession(cfg)
			if err != nil {
				b.Fatal(err)
			}
			tagBits := make([]byte, s.Capacity())
			for i := range tagBits {
				tagBits[i] = byte(i) & 1
			}
			// Warm the signal/arena and session pools so b.N measures
			// steady state rather than first-packet pool fills.
			if _, err := s.RunPacket(tagBits); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.RunPacket(tagBits); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSessionRunPacketLossy is BenchmarkSessionRunPacket at
// distances where packets are lost (WiFi 45 m, ZigBee 22 m, Bluetooth
// 10 m): serial, on a warm Session, reporting allocations and the share
// of packets lost. A WiFi or ZigBee packet lost at detection stops where
// the scan stops, so its time is synthesis plus the channel for the
// samples the scan read (rounded up to signal.RotorBlock); Bluetooth
// reads the whole capture and has no such stop.
func BenchmarkSessionRunPacketLossy(b *testing.B) {
	for _, tc := range []struct {
		radio Radio
		dist  float64
	}{{WiFi, 45}, {ZigBee, 22}, {Bluetooth, 10}} {
		b.Run(tc.radio.String(), func(b *testing.B) {
			s, err := NewSession(DefaultConfig(tc.radio, tc.dist))
			if err != nil {
				b.Fatal(err)
			}
			tagBits := make([]byte, s.Capacity())
			for i := range tagBits {
				tagBits[i] = byte(i) & 1
			}
			if _, err := s.RunPacket(tagBits); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			lost := 0
			for i := 0; i < b.N; i++ {
				r, err := s.RunPacket(tagBits)
				if err != nil {
					b.Fatal(err)
				}
				if !r.Decoded {
					lost++
				}
			}
			b.ReportMetric(float64(lost)/float64(b.N), "lost/op")
		})
	}
}

// BenchmarkSessionRunPacketBatch is the batch pipeline's per-packet cost:
// batchSize packets per RunPacketBatch call over a warm waveform
// cache and a fixed ContentSeed, so every iteration replays the same
// packet indices with cache-hit synthesis and the number measures the
// receive-side DSP the batch path amortises — channel, receiver, decode.
// ns/op is per packet (the loop strides by the batch size). The serial
// BenchmarkSessionRunPacket above stays as-is: the pair is the
// ROADMAP "sub-millisecond packet" scoreboard, cache half vs DSP half.
func BenchmarkSessionRunPacketBatch(b *testing.B) {
	for _, radio := range []Radio{WiFi, ZigBee, Bluetooth} {
		b.Run(radio.String(), func(b *testing.B) {
			cfg := DefaultConfig(radio, 5)
			cfg.Waveforms = waveform.New(0)
			cfg.ContentSeed = 7 // fixed content: replayed indices hit the cache
			s, err := NewSession(cfg)
			if err != nil {
				b.Fatal(err)
			}
			// Warm pools and populate the waveform cache for the batch.
			if _, err := s.RunPacketBatch(0, batchSize); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += batchSize {
				if _, err := s.RunPacketBatch(0, batchSize); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
