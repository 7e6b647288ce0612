package core

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/runner"
	"repro/internal/signal"
	"repro/internal/zigbee"
)

// onDemandRx is one radio's receiver as the test drives it: detection on
// a finished capture, the receiver's one entry on a capture computed on
// demand, and its detection threshold.
type onDemandRx struct {
	detect    func(*signal.Signal) (int, float64)
	receive   func(*signal.Signal, func(int)) (any, error)
	threshold float64
}

// TestPrefixDetectionMatchesWholeCapture holds the WiFi and ZigBee
// receivers, filling the capture as they read it, to the whole capture,
// over an SNR sweep × seeds × {0, ±15 kHz} CFO in both dispatch modes:
// the receiver returns the packet or error it returns on the
// ApplyToWithPower capture, detection on the capture as the receiver
// left it returns that capture's start and the float bits of its
// quality, the samples filled equal it bit for bit, and a packet lost
// before the capture's end is one the whole capture rejects, with every
// sample past its last fill (rounded up to signal.RotorBlock)
// untouched. The capture's samples are poisoned with NaN after Begin,
// so any read of a sample no fill wrote, or any write past the last
// fill, turns up as a NaN or a mismatch. Both outcomes, lost before the
// capture's end and detected above threshold, must occur.
func TestPrefixDetectionMatchesWholeCapture(t *testing.T) {
	for _, radio := range []Radio{WiFi, ZigBee} {
		t.Run(radio.String(), func(t *testing.T) {
			forEachDispatchMode(t, func(t *testing.T) {
				var stopped, detected, scanned int
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
							var rx onDemandRx
							switch radio {
							case WiFi:
								r := s.phy.(*wifiPHY).receiver()
								rx = onDemandRx{r.DetectPreamble, func(c *signal.Signal, fill func(int)) (any, error) {
									return r.ReceiveOnDemand(c, fill)
								}, r.DetectionThreshold}
							case ZigBee:
								r := zigbee.NewReceiver()
								r.DetectionThreshold = zbDetectionThreshold
								rx = onDemandRx{r.Detect, func(c *signal.Signal, fill func(int)) (any, error) {
									return r.ReceiveOnDemand(c, fill)
								}, r.DetectionThreshold}
							}
							label := fmt.Sprintf("snr=%g seed=%d cfo=%g", snr, seed, cfo)
							switch onDemandOutcome(t, s, label, rx) {
							case "stopped":
								stopped++
							case "detected":
								detected++
							default:
								scanned++
							}
						}
					}
				}
				t.Logf("lost before the capture's end %d, detected above threshold %d, lost after a whole scan %d", stopped, detected, scanned)
				if stopped == 0 || detected == 0 {
					t.Fatalf("lost before the capture's end %d, detected above threshold %d: both must occur", stopped, detected)
				}
			})
		})
	}
}

// onDemandOutcome runs packet 0 of s through the channel twice, whole
// and filled on demand by rx, checks that they agree, and says how the
// packet ended: "stopped" (lost before the capture's end), "detected"
// (above threshold) or "scanned" (lost after a whole scan).
func onDemandOutcome(t *testing.T, s *Session, label string, rx onDemandRx) string {
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
	wantStart, wantQ := rx.detect(&whole)
	wantRx, wantErr := rx.receive(&whole, func(int) {})

	var part signal.Signal
	c, err := l.Begin(&part, e.Wave, captureHeadroom, false, e.MeanPower)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release()
	for i := range part.Samples {
		part.Samples[i] = cmplx.NaN()
	}
	asked := 0
	gotRx, gotErr := rx.receive(&part, func(n int) {
		asked = max(asked, n)
		c.Fill(n)
	})
	if !reflect.DeepEqual(gotErr, wantErr) || !reflect.DeepEqual(gotRx, wantRx) {
		t.Fatalf("%s: on demand the receiver returns error %v and another result than on the whole capture (error %v)", label, gotErr, wantErr)
	}
	if start, q := rx.detect(&part); start != wantStart || math.Float64bits(q) != math.Float64bits(wantQ) {
		t.Fatalf("%s: detection on the capture as the receiver left it (%d, %v), whole capture (%d, %v)", label, start, q, wantStart, wantQ)
	}
	filled := min(len(part.Samples), (asked+signal.RotorBlock-1)/signal.RotorBlock*signal.RotorBlock)
	for i, v := range whole.Samples[:filled] {
		w := part.Samples[i]
		if math.Float64bits(real(v)) != math.Float64bits(real(w)) || math.Float64bits(imag(v)) != math.Float64bits(imag(w)) {
			t.Fatalf("%s: filled sample %d = %v, ApplyToWithPower %v", label, i, w, v)
		}
	}
	if filled < len(part.Samples) {
		if wantStart >= 0 && wantQ >= rx.threshold {
			t.Fatalf("%s: lost with %d samples filled, whole-capture quality %v", label, filled, wantQ)
		}
		for i, v := range part.Samples[filled:] {
			if !cmplx.IsNaN(v) {
				t.Fatalf("%s: a packet lost at detection wrote sample %d past its last fill (%d)", label, filled+i, filled)
			}
		}
		return "stopped"
	}
	if wantStart >= 0 && wantQ >= rx.threshold {
		return "detected"
	}
	return "scanned"
}
