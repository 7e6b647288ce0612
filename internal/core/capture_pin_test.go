package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/runner"
	"repro/internal/signal"
)

// TestCapturePinned pins the float64 bits of one packet's path from
// synthesis to the receiver's input: the clean entry's waveform and mean
// power, and the capture Link.ApplyToWithPower writes for it. The
// end-to-end goldens only see decided bits, which a small change in a
// gain or a rotation (a 2⁻²⁰ relative error, say) can leave untouched;
// this digest cannot. Each radio runs at a near distance and a lossy
// one, the lossy one with a residual CFO so the channel's frequency
// shift is pinned too. WiFi runs uncached (synthesised afresh), like
// the wifi-fresh benchmark. The digests must hold in both dispatch
// modes and on builds without the asm kernels.
func TestCapturePinned(t *testing.T) {
	cases := []struct {
		name        string
		radio       Radio
		dist, cfoHz float64
		wave, capt  string // sha256 of the entry (wave, then mean power) and of the capture
	}{
		{"wifi-2m", WiFi, 2, 0,
			"4776df093b533ca61751bd41e93d0fb5c3fb4e3c890a707cca0af16b101f075b",
			"ec197e483dd22b42685c752f1e9edf63c2d383a8b60a05b54debc1e64ff67aa8"},
		{"wifi-45m", WiFi, 45, 2500,
			"4776df093b533ca61751bd41e93d0fb5c3fb4e3c890a707cca0af16b101f075b",
			"20c6d651b9ab82a104b4afec0cb958b8920871d455127fd3e5cb43a226af829a"},
		{"zigbee-2m", ZigBee, 2, 0,
			"b4558202626b11830fa3907f3f8d4ccb1999f136558482e2d10882a36f6ea15e",
			"f89c5450174034905bd0029f845dadbd08df514f3ce0d5e9f78c57935af4e07e"},
		{"zigbee-24m", ZigBee, 24, 900,
			"b4558202626b11830fa3907f3f8d4ccb1999f136558482e2d10882a36f6ea15e",
			"2557b39b36bfc2f7dc9911fcd068d7930ee8204c3cb71a0c65d4e8890e4447a9"},
		{"bluetooth-2m", Bluetooth, 2, 0,
			"1bad925deb45037b63f6a4a85d3df0a4b1c495fafea5b754880b09d6f0a2f2fe",
			"214822aab0ff6ee513c7bafd0248cac613749ecf85b2f9c40be21afd95a18881"},
		{"bluetooth-12m", Bluetooth, 12, 700,
			"1bad925deb45037b63f6a4a85d3df0a4b1c495fafea5b754880b09d6f0a2f2fe",
			"7d6c24c9480306aaccaf92a5aec4d452c6da042b05b429fd32523d81086fe78a"},
	}
	const (
		seed = 7
		idx  = 3
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			forEachDispatchMode(t, func(t *testing.T) {
				cfg := DefaultConfig(c.radio, c.dist)
				cfg.Seed = seed
				cfg.Link.CFOHz = c.cfoHz
				wave, capt, split := captureDigests(t, cfg, idx)
				if wave != c.wave || capt != c.capt {
					t.Errorf("digests (wave, capture) = (%q, %q), want (%q, %q)", wave, capt, c.wave, c.capt)
				}
				if split != c.capt {
					t.Errorf("capture filled as prefix plus rest: digest %q, want %q", split, c.capt)
				}
			})
		})
	}
}

// captureDigests runs packet idx of a session on cfg as runPacketAtWith
// does, up to the capture, and returns the sha256 of the synthesised
// entry (its samples' float64 bits, then its mean power's) and of the
// capture's samples, once from ApplyToWithPower and once filled as the
// packet pipeline fills it: the detection prefix, then the rest.
func captureDigests(t *testing.T, cfg Config, idx int) (wave, capt, split string) {
	t.Helper()
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(runner.DeriveSeed(cfg.Seed, "core.packet", idx)))
	tagBits := make([]byte, s.capacity)
	for j := range tagBits {
		tagBits[j] = byte(rng.Intn(2))
	}
	payload, scrambler := s.phy.draw(rng, false)
	e, err := s.entry(payload, tagBits, scrambler)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	writeSamples(h.Write, e.Wave.Samples)
	h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(e.MeanPower)))
	wave = hex.EncodeToString(h.Sum(nil))

	l := s.link(rng, faults.Packet{})
	var c signal.Signal
	if err := l.ApplyToWithPower(&c, e.Wave, captureHeadroom, false, e.MeanPower); err != nil {
		t.Fatal(err)
	}
	h.Reset()
	writeSamples(h.Write, c.Samples)
	capt = hex.EncodeToString(h.Sum(nil))

	var p signal.Signal
	pc, err := l.Begin(&p, e.Wave, captureHeadroom, false, e.MeanPower)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(pc.Fill(detectPrefix).Samples); n != detectPrefix {
		t.Fatalf("prefix fill returned %d samples, want %d", n, detectPrefix)
	}
	pc.Fill(math.MaxInt)
	pc.Release()
	h.Reset()
	writeSamples(h.Write, p.Samples)
	s.phy.release(e)
	return wave, capt, hex.EncodeToString(h.Sum(nil))
}

// writeSamples feeds the little-endian float64 bits of each sample, real
// part first, to w.
func writeSamples(w func([]byte) (int, error), x []complex128) {
	b := make([]byte, 0, 16*len(x))
	for _, v := range x {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(real(v)))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(imag(v)))
	}
	w(b)
}
