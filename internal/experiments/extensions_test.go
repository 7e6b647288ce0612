package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
)

func TestQuaternaryStudyDoublesRate(t *testing.T) {
	pts, err := QuaternaryStudy(Options{PacketsPerPoint: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points, want 2", len(pts))
	}
	binary, quad := pts[0], pts[1]
	if quad.ThroughputKbps < 1.7*binary.ThroughputKbps {
		t.Fatalf("quaternary %.1f kbps not ~2x binary %.1f", quad.ThroughputKbps, binary.ThroughputKbps)
	}
	if binary.TagBER > 0.02 || quad.TagBER > 0.02 {
		t.Fatalf("BERs %.3g / %.3g too high", binary.TagBER, quad.TagBER)
	}
}

func TestCFOStudyFlat(t *testing.T) {
	pts, err := CFOStudy(Options{PacketsPerPoint: 3, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	// Per-radio zero-CFO baselines to compare against.
	base := map[string]float64{}
	for _, p := range pts {
		if p.CFOHz == 0 {
			base[p.Radio.String()] = p.ThroughputKbps
		}
	}
	for _, p := range pts {
		// ZigBee's raw tag BER is the highest of the three radios even in
		// the paper (~5e-2); marginal faded packets decode with window
		// errors. The bound is about CFO not making things *worse*.
		maxBER := 0.05
		if p.Radio == core.ZigBee {
			maxBER = 0.2
		}
		if p.TagBER > maxBER {
			t.Errorf("%v cfo %.0f Hz: BER %.3g", p.Radio, p.CFOHz, p.TagBER)
		}
		// A real CFO failure collapses throughput toward 0; moderate
		// fading losses with this few packets are fine.
		if b := base[p.Radio.String()]; p.ThroughputKbps < 0.4*b {
			t.Errorf("%v cfo %.0f Hz: throughput %.1f kbps vs %.1f at 0 Hz",
				p.Radio, p.CFOHz, p.ThroughputKbps, b)
		}
	}
}

func TestCollisionStudy(t *testing.T) {
	pts, err := CollisionStudy(Options{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].WorstBER > 0.01 {
		t.Fatalf("single tag BER %.3f", pts[0].WorstBER)
	}
	for _, p := range pts[1:] {
		if p.WorstBER < 0.15 {
			t.Fatalf("%d tags: worst BER %.3f; collisions must destroy data", p.Tags, p.WorstBER)
		}
	}
}

func TestFig17FirmwareLevelAgreesWithAbstract(t *testing.T) {
	fine, err := Fig17FirmwareLevel(50, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := Fig17MultiTag(50, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range fine {
		f, c := fine[i].AlohaKbps, coarse[i].AlohaKbps
		if f < 0.55*c || f > 1.6*c {
			t.Errorf("tags=%d: firmware %.1f kbps vs abstract %.1f kbps", fine[i].Tags, f, c)
		}
	}
}

func TestWaterfallMonotone(t *testing.T) {
	for _, radio := range []core.Radio{core.WiFi, core.ZigBee, core.Bluetooth} {
		pts, err := Waterfall(radio, []float64{-4, 0, 6, 12}, 5, Options{Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		// High SNR must decode everything; very low SNR must not.
		if last := pts[len(pts)-1]; last.PacketRate < 0.99 {
			t.Errorf("%v: packet rate %.2f at 12 dB", radio, last.PacketRate)
		}
		if first := pts[0]; first.PacketRate > 0.5 {
			t.Errorf("%v: packet rate %.2f at -4 dB, want mostly failing", radio, first.PacketRate)
		}
		// Roughly monotone in SNR.
		for i := 1; i < len(pts); i++ {
			if pts[i].PacketRate+0.25 < pts[i-1].PacketRate {
				t.Errorf("%v: packet rate fell from %.2f to %.2f between %g and %g dB",
					radio, pts[i-1].PacketRate, pts[i].PacketRate, pts[i-1].SNRdB, pts[i].SNRdB)
			}
		}
	}
	if _, err := Waterfall(core.WiFi, []float64{0}, 0, Options{Seed: 1}); err == nil {
		t.Error("zero frames accepted")
	}
	if _, err := Waterfall(core.Radio(9), []float64{0}, 1, Options{Seed: 1}); err == nil {
		t.Error("unknown radio accepted")
	}
}

// TestWaterfallWorkerCountInvariant holds Waterfall, which is not in the
// registry, to TestRegistryWorkerCountInvariant's contract: identical
// rows and point/packet/sample counters on one worker and on three.
func TestWaterfallWorkerCountInvariant(t *testing.T) {
	for _, radio := range []core.Radio{core.WiFi, core.ZigBee, core.Bluetooth} {
		e := Experiment{Name: radio.String(), Run: func(opt Options, _ bool) (any, error) {
			return Waterfall(radio, []float64{-2, 2, 6, 12}, 3, opt)
		}}
		t.Run(e.Name, func(t *testing.T) {
			opt := QuickOptions()
			opt.Workers = 1
			rows1, reps1 := meteredRun(t, e, opt)
			opt.Workers = 3
			rows3, reps3 := meteredRun(t, e, opt)
			if !bytes.Equal(rows1, rows3) {
				t.Errorf("rows differ between 1 and 3 workers:\n%s\n%s", rows1, rows3)
			}
			if !reflect.DeepEqual(reps1, reps3) {
				t.Errorf("spans %+v on 1 worker, %+v on 3", reps1, reps3)
			}
		})
	}
}

// TestWaterfallBERSeesBadFrames pins that PayloadBER counts the bit
// errors of frames whose checksum failed: near each radio's
// sensitivity some frames come back at full length with a bad checksum,
// so some point must report a nonzero BER, and every point must have
// lost no more frames than it counted as errors.
func TestWaterfallBERSeesBadFrames(t *testing.T) {
	for _, radio := range []core.Radio{core.WiFi, core.ZigBee, core.Bluetooth} {
		pts, err := Waterfall(radio, []float64{-2, 0, 2, 4}, 8, Options{Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		nonzero := false
		for _, p := range pts {
			if p.PayloadBER > 0 {
				nonzero = true
			}
			if p.Lost > p.FrameErrors || p.FrameErrors > p.Frames {
				t.Errorf("%v at %g dB: %d lost, %d frame errors of %d", radio, p.SNRdB, p.Lost, p.FrameErrors, p.Frames)
			}
		}
		if !nonzero {
			t.Errorf("%v: every low-SNR point reports payload BER 0: %v", radio, pts)
		}
	}
}
