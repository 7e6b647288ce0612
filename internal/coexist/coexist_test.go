package coexist

import (
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

func TestValidate(t *testing.T) {
	bad := DefaultConfig(core.WiFi)
	bad.Windows = 0
	if _, err := WiFiThroughput(bad, true); err == nil {
		t.Error("zero windows accepted")
	}
	if _, err := BackscatterThroughput(bad, true); err == nil {
		t.Error("zero windows accepted")
	}
	bad = DefaultConfig(core.WiFi)
	bad.Excitation = core.Radio(9)
	if _, err := WiFiThroughput(bad, true); err == nil {
		t.Error("unknown excitation accepted")
	}
}

// TestFig15BackscatterDoesNotHurtWiFi: median WiFi goodput with the tag
// running must be within a whisker of the tag-free median, for every
// excitation type (§4.4.1: 37.0/37.9/36.8 vs 37.4 Mbps).
func TestFig15BackscatterDoesNotHurtWiFi(t *testing.T) {
	for _, exc := range []core.Radio{core.WiFi, core.ZigBee, core.Bluetooth} {
		cfg := DefaultConfig(exc)
		without, err := WiFiThroughput(cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		with, err := WiFiThroughput(cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		mw, _ := stats.Median(without)
		mt, _ := stats.Median(with)
		if mw < 35 || mw > 40 {
			t.Fatalf("%v: baseline median %.1f Mbps, want ~37.4", exc, mw)
		}
		if diff := mt - mw; diff < -1 || diff > 1 {
			t.Fatalf("%v: backscatter shifted WiFi median by %.2f Mbps", exc, diff)
		}
	}
}

// TestFig16WiFiImpactOnBackscatter: WiFi excitation suffers visibly in the
// CDF tail; ZigBee and Bluetooth barely move (§4.4.2).
func TestFig16WiFiImpactOnBackscatter(t *testing.T) {
	// WiFi excitation: median preserved, low quantile degraded.
	cfg := DefaultConfig(core.WiFi)
	absent, err := BackscatterThroughput(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	present, err := BackscatterThroughput(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	ma, _ := stats.Median(absent)
	mp, _ := stats.Median(present)
	if ma < 55 || ma > 68 {
		t.Fatalf("wifi backscatter median %.1f kbps, want ~61.8", ma)
	}
	if mp < ma-6 {
		t.Fatalf("median collapsed under WiFi: %.1f vs %.1f", mp, ma)
	}
	qa, _ := stats.Quantile(absent, 0.1)
	qp, _ := stats.Quantile(present, 0.1)
	if qp >= qa {
		t.Fatalf("10th percentile should degrade with WiFi present: %.1f vs %.1f", qp, qa)
	}

	// ZigBee and Bluetooth: medians move by at most ~2 kbps.
	for _, exc := range []core.Radio{core.ZigBee, core.Bluetooth} {
		cfg := DefaultConfig(exc)
		absent, err := BackscatterThroughput(cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		present, err := BackscatterThroughput(cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		ma, _ := stats.Median(absent)
		mp, _ := stats.Median(present)
		if d := ma - mp; d > 2 || d < -2 {
			t.Fatalf("%v: WiFi shifted backscatter median by %.2f kbps", exc, d)
		}
	}
}

func TestGoodputStaircase(t *testing.T) {
	if g := goodputForSINR(30); g < 35 || g > 40 {
		t.Fatalf("high-SINR goodput %.1f, want ~37.4", g)
	}
	if g := goodputForSINR(11); g >= goodputForSINR(30) {
		t.Fatal("staircase not monotone")
	}
	if goodputForSINR(-10) != 0 {
		t.Fatal("below-sensitivity goodput should be 0")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := DefaultConfig(core.WiFi)
	a, _ := BackscatterThroughput(cfg, true)
	b, _ := BackscatterThroughput(cfg, true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different windows")
		}
	}
}

func TestPlateauValues(t *testing.T) {
	for _, exc := range []core.Radio{core.WiFi, core.ZigBee, core.Bluetooth} {
		kbps, pkt := backscatterPlateau(exc)
		if kbps <= 0 || pkt <= 0 {
			t.Fatalf("%v: missing plateau calibration", exc)
		}
	}
}
