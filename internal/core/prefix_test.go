package core

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/runner"
	"repro/internal/signal"
	"repro/internal/zigbee"
)

// TestPrefixDetectionMatchesWholeCapture holds detectFirst to detection
// on the whole capture, for WiFi and ZigBee over an SNR sweep × seeds ×
// {0, ±15 kHz} CFO in both dispatch modes: the start and the float bits
// of the quality it returns are the whole capture's, a prefix answer
// called final is that answer too, a packet lost at the prefix is one
// the whole capture rejects, and a filled capture equals
// ApplyToWithPower's. The capture's samples are poisoned with NaN after
// Begin, so any read of a sample the prefix fill did not write, or any
// write past it, turns up as a NaN or a mismatch. Both outcomes, lost
// at the prefix and decided above threshold, must occur, so a prefix
// too short for the scans to stop in fails here rather than silently
// falling back everywhere.
func TestPrefixDetectionMatchesWholeCapture(t *testing.T) {
	type detector = func(*signal.Signal) (int, float64, bool)
	for _, radio := range []Radio{WiFi, ZigBee} {
		t.Run(radio.String(), func(t *testing.T) {
			forEachDispatchMode(t, func(t *testing.T) {
				var stopped, decided, undecided int
				for snr := -2.0; snr <= 14; snr += 2 {
					for seed := int64(1); seed <= 3; seed++ {
						for _, cfo := range []float64{0, 15e3, -15e3} {
							cfg := DefaultConfig(radio, 10)
							cfg.Seed = seed
							cfg.Link.CFOHz = cfo
							cfg.Link.NoiseFloor = cfg.Link.BackscatterRSSI() - snr
							s, err := NewSession(cfg)
							if err != nil {
								t.Fatal(err)
							}
							var detect detector
							var threshold float64
							switch radio {
							case WiFi:
								rx := s.phy.(*wifiPHY).receiver()
								detect, threshold = rx.DetectPrefix, rx.DetectionThreshold
							case ZigBee:
								rx := zigbee.NewReceiver()
								rx.DetectionThreshold = zbDetectionThreshold
								detect, threshold = rx.DetectPrefix, rx.DetectionThreshold
							}
							label := fmt.Sprintf("snr=%g seed=%d cfo=%g", snr, seed, cfo)
							switch prefixOutcome(t, s, label, detect, threshold) {
							case "stopped":
								stopped++
							case "decided":
								decided++
							default:
								undecided++
							}
						}
					}
				}
				t.Logf("lost at the prefix %d, decided above threshold %d, undecided %d", stopped, decided, undecided)
				if stopped == 0 || decided == 0 {
					t.Fatalf("lost at the prefix %d, decided above threshold %d: both must occur", stopped, decided)
				}
			})
		})
	}
}

// prefixOutcome runs packet 0 of s through the channel twice, whole and
// through detectFirst, checks that they agree, and says how detectFirst
// ended: "stopped" (lost at the prefix), "decided" (a final prefix
// answer at or above threshold) or "undecided".
func prefixOutcome(t *testing.T, s *Session, label string, detect func(*signal.Signal) (int, float64, bool), threshold float64) string {
	t.Helper()
	rng := rand.New(rand.NewSource(runner.DeriveSeed(s.cfg.Seed, "core.packet", 0)))
	tagBits := make([]byte, s.capacity)
	for j := range tagBits {
		tagBits[j] = byte(rng.Intn(2))
	}
	payload, scrambler := s.phy.draw(rng, false)
	e, err := s.entry(payload, tagBits, scrambler)
	if err != nil {
		t.Fatal(err)
	}
	defer s.phy.release(e)
	l := s.link(rng, faults.Packet{})

	var whole signal.Signal
	if err := l.ApplyToWithPower(&whole, e.Wave, captureHeadroom, false, e.MeanPower); err != nil {
		t.Fatal(err)
	}
	wantStart, wantQ, _ := detect(&whole)

	var part signal.Signal
	c, err := l.Begin(&part, e.Wave, captureHeadroom, false, e.MeanPower)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release()
	for i := range part.Samples {
		part.Samples[i] = cmplx.NaN()
	}
	var final bool
	filled := len(part.Samples)
	cap, start, q := detectFirst(c, threshold, func(x *signal.Signal) (int, float64, bool) {
		st, q, f := detect(x)
		if len(x.Samples) < len(part.Samples) {
			final, filled = f, len(x.Samples)
			if f && (st != wantStart || math.Float64bits(q) != math.Float64bits(wantQ)) {
				t.Fatalf("%s: final prefix detection (%d, %v), whole capture (%d, %v)", label, st, q, wantStart, wantQ)
			}
		}
		return st, q, f
	})
	if start != wantStart || math.Float64bits(q) != math.Float64bits(wantQ) {
		t.Fatalf("%s: detectFirst (%d, %v), whole capture (%d, %v)", label, start, q, wantStart, wantQ)
	}
	if cap == nil {
		if !final || !(wantQ < threshold) {
			t.Fatalf("%s: lost at the prefix with final=%v, whole-capture quality %v", label, final, wantQ)
		}
		if filled == len(part.Samples) || !cmplx.IsNaN(part.Samples[filled]) {
			t.Fatalf("%s: a packet lost at the prefix filled past it", label)
		}
		return "stopped"
	}
	if cap != &part {
		t.Fatalf("%s: detectFirst returned a capture other than the filled whole", label)
	}
	for i, v := range whole.Samples {
		w := part.Samples[i]
		if math.Float64bits(real(v)) != math.Float64bits(real(w)) || math.Float64bits(imag(v)) != math.Float64bits(imag(w)) {
			t.Fatalf("%s: filled sample %d = %v, ApplyToWithPower %v", label, i, w, v)
		}
	}
	if final {
		return "decided"
	}
	return "undecided"
}
