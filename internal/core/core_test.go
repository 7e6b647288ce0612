package core

import (
	"math"
	"strings"
	"testing"
)

func TestRadioString(t *testing.T) {
	// The bench tables and the fig15/fig16 rows print these names.
	for r, want := range map[Radio]string{WiFi: "802.11g/n WiFi", ZigBee: "ZigBee", Bluetooth: "Bluetooth"} {
		if got := r.String(); got != want {
			t.Errorf("radio %d named %q, want %q", int(r), got, want)
		}
	}
	if !strings.HasPrefix(Radio(9).String(), "Radio(") {
		t.Error("invalid radio should print numerically")
	}
}

func TestPowerBudgetMatchesPaper(t *testing.T) {
	// WiFi translator with a 20 MHz shift: ~19 + 12 + 3 = 34 uW, i.e.
	// "around 30 uW" (§3.3).
	p := TagPower(WiFi, 20e6)
	if math.Abs(p.ClockUW-19) > 0.1 {
		t.Fatalf("clock power %g, want 19", p.ClockUW)
	}
	if p.SwitchUW != 12 {
		t.Fatalf("switch power %g, want 12", p.SwitchUW)
	}
	if total := p.TotalUW(); total < 28 || total > 36 {
		t.Fatalf("total %g uW, want around 30", total)
	}
	// Bluetooth toggles far slower so the clock draw collapses.
	bt := TagPower(Bluetooth, 500e3)
	if bt.ClockUW > 1 {
		t.Fatalf("bluetooth clock power %g, want < 1", bt.ClockUW)
	}
	if bt.LogicUW >= p.LogicUW {
		t.Error("bluetooth control logic should be simpler than wifi's")
	}
}

func TestNewSessionValidation(t *testing.T) {
	cfg := DefaultConfig(WiFi, 5)
	cfg.WiFiRateMbps = 7
	if _, err := NewSession(cfg); err == nil {
		t.Error("unknown wifi rate accepted")
	}
	cfg = DefaultConfig(WiFi, 5)
	cfg.WiFiRateMbps = 24 // 16-QAM: 180° flips are not codebook automorphisms
	if _, err := NewSession(cfg); err == nil {
		t.Error("16-QAM rate accepted for 180° translation")
	}
	cfg = DefaultConfig(WiFi, 5)
	cfg.PayloadSize = 0
	if _, err := NewSession(cfg); err == nil {
		t.Error("zero payload accepted")
	}
	cfg = DefaultConfig(ZigBee, 5)
	cfg.Redundancy = 0
	if _, err := NewSession(cfg); err == nil {
		t.Error("zero redundancy accepted")
	}
	cfg = DefaultConfig(WiFi, 5)
	cfg.Redundancy = (1<<63)/24 + 1 // Redundancy·NDBPS-bit windows overflow int
	if _, err := NewSession(cfg); err == nil {
		t.Error("redundancy leaving no room for a tag bit accepted")
	}
	if _, err := NewSession(Config{Radio: Radio(42), PayloadSize: 1, Redundancy: 1}); err == nil {
		t.Error("unknown radio accepted")
	}
	// Payloads outside the frame the PHY can send: above the PSDU/frame
	// limit every packet would fail in TX, below the MAC header the frame
	// sent would be longer than PacketDuration and Capacity assume.
	for _, tc := range []struct {
		radio Radio
		size  int
	}{
		{WiFi, 10}, {WiFi, 23}, {WiFi, 4092}, {WiFi, 5000},
		{ZigBee, 3}, {ZigBee, 8}, {ZigBee, 126}, {ZigBee, 200},
		{Bluetooth, 256}, {Bluetooth, 300},
	} {
		cfg := DefaultConfig(tc.radio, 5)
		cfg.PayloadSize = tc.size
		if _, err := NewSession(cfg); err == nil {
			t.Errorf("%v payload size %d accepted", tc.radio, tc.size)
		}
	}
}

// TestPayloadBoundsMatchAirtime runs one packet at each end of every
// radio's accepted payload range: the packet must transmit, and the frame
// actually sent must last PacketDuration to well within one PHY unit (a
// 4 µs OFDM symbol, a 32 µs ZigBee byte, an 8 µs Bluetooth byte); the
// OQPSK half-chip offset and pulse tail add 1 µs to a ZigBee waveform.
func TestPayloadBoundsMatchAirtime(t *testing.T) {
	for _, tc := range []struct {
		radio  Radio
		lo, hi int
	}{
		{WiFi, 24, 4091},
		{ZigBee, 9, 125},
		{Bluetooth, 1, 255},
	} {
		for _, size := range []int{tc.lo, tc.hi} {
			cfg := DefaultConfig(tc.radio, 5)
			cfg.PayloadSize = size
			s, err := NewSession(cfg)
			if err != nil {
				t.Fatalf("%v payload size %d rejected: %v", tc.radio, size, err)
			}
			res, err := s.RunPacket(make([]byte, s.Capacity()))
			if err != nil {
				t.Fatalf("%v payload size %d: %v", tc.radio, size, err)
			}
			if d := s.PacketDuration(); math.Abs(res.AirTime-d) > 2e-6 {
				t.Errorf("%v payload size %d: airtime %g s, PacketDuration %g s", tc.radio, size, res.AirTime, d)
			}
		}
	}
}

func TestCapacityMatchesPaperNumbers(t *testing.T) {
	// WiFi: 1504-byte PSDU at 6 Mbps = 503 data symbols; skipping the
	// SERVICE symbol leaves 125 four-symbol windows (~60 kbps over ~2 ms).
	s, err := NewSession(DefaultConfig(WiFi, 5))
	if err != nil {
		t.Fatal(err)
	}
	if c := s.Capacity(); c != 125 {
		t.Fatalf("wifi capacity %d, want 125", c)
	}
	// ZigBee: 100-byte payload -> 204 body symbols / 4 = 51, minus header
	// alignment -> 50.
	s, err = NewSession(DefaultConfig(ZigBee, 5))
	if err != nil {
		t.Fatal(err)
	}
	if c := s.Capacity(); c < 49 || c > 51 {
		t.Fatalf("zigbee capacity %d, want about 50", c)
	}
	// Bluetooth: 255-byte payload -> (2112-40)/16 = 129.
	s, err = NewSession(DefaultConfig(Bluetooth, 5))
	if err != nil {
		t.Fatal(err)
	}
	if c := s.Capacity(); c != 129 {
		t.Fatalf("bluetooth capacity %d, want 129", c)
	}
}

func TestEndToEndCloseRange(t *testing.T) {
	// At 5 m all three radios must deliver their paper-reported plateau
	// throughput with zero tag BER.
	cases := []struct {
		radio   Radio
		minKbps float64
		maxBER  float64
	}{
		{WiFi, 50, 0.01},
		{ZigBee, 11, 0.01},
		{Bluetooth, 45, 0.02},
	}
	for _, c := range cases {
		cfg := DefaultConfig(c.radio, 5)
		s, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(4)
		if err != nil {
			t.Fatal(err)
		}
		if thr := res.ThroughputBps() / 1e3; thr < c.minKbps {
			t.Errorf("%v: throughput %.1f kbps, want >= %.0f", c.radio, thr, c.minKbps)
		}
		if ber := res.BER(); ber > c.maxBER {
			t.Errorf("%v: BER %.4f, want <= %.3f", c.radio, ber, c.maxBER)
		}
	}
}

func TestEndToEndBeyondRange(t *testing.T) {
	// Far beyond the paper's maximum ranges nothing should decode.
	cases := []struct {
		radio Radio
		dist  float64
	}{{WiFi, 60}, {ZigBee, 35}, {Bluetooth, 25}}
	for _, c := range cases {
		s, err := NewSession(DefaultConfig(c.radio, c.dist))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(3)
		if err != nil {
			t.Fatal(err)
		}
		if res.TagBitsDecoded != 0 {
			t.Errorf("%v at %gm: decoded %d bits, want 0", c.radio, c.dist, res.TagBitsDecoded)
		}
		if res.LossRate() != 1 {
			t.Errorf("%v at %gm: loss %.2f, want 1", c.radio, c.dist, res.LossRate())
		}
	}
}

func TestExactTagDataRecovery(t *testing.T) {
	// A specific message must round-trip bit-exactly at close range on
	// every radio (fading disabled to make this deterministic).
	msg := []byte{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0, 1, 0, 1, 1}
	for _, r := range []Radio{WiFi, ZigBee, Bluetooth} {
		cfg := DefaultConfig(r, 3)
		cfg.Link.FadingK = 0
		s, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := s.RunPacket(msg)
		if err != nil {
			t.Fatal(err)
		}
		if !pr.Decoded {
			t.Fatalf("%v: packet not decoded", r)
		}
		if pr.TagBits != len(msg) {
			t.Fatalf("%v: embedded %d bits, want %d", r, pr.TagBits, len(msg))
		}
		for i := range msg {
			if pr.DecodedTag[i] != msg[i] {
				t.Fatalf("%v: bit %d = %d, want %d", r, i, pr.DecodedTag[i], msg[i])
			}
		}
		if pr.BitErrors != 0 {
			t.Fatalf("%v: %d bit errors", r, pr.BitErrors)
		}
	}
}

func TestPilotTrackingAblationBreaksWiFiTag(t *testing.T) {
	// §3.2.1: receivers that correct phase with pilot tones erase the tag's
	// phase modulation. With tracking enabled, tag decoding must collapse
	// to chance while the link itself still decodes.
	cfg := DefaultConfig(WiFi, 3)
	cfg.Link.FadingK = 0
	cfg.PilotPhaseTracking = true
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if res.TagBitsDecoded == 0 {
		t.Fatal("packets should still decode with pilot tracking")
	}
	if ber := res.BER(); ber < 0.2 {
		t.Fatalf("BER %.3f with pilot tracking; expected tag data destroyed", ber)
	}
}

func TestQPSKRateAlsoCarriesTagData(t *testing.T) {
	// 180° phase flips complement both QPSK bits, so 12 Mbps should work
	// too (more tag bits per second thanks to shorter packets... same
	// symbol count per window, so same tag rate per packet duration).
	cfg := DefaultConfig(WiFi, 3)
	cfg.Link.FadingK = 0
	cfg.WiFiRateMbps = 12
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if res.TagBitsDecoded == 0 || res.BER() > 0.01 {
		t.Fatalf("QPSK: decoded=%d BER=%.4f", res.TagBitsDecoded, res.BER())
	}
}

func TestRedundancyAblation(t *testing.T) {
	// Fewer OFDM symbols per tag bit means more tag bits per packet.
	cfgLow := DefaultConfig(WiFi, 3)
	cfgLow.Redundancy = 2
	sLow, err := NewSession(cfgLow)
	if err != nil {
		t.Fatal(err)
	}
	cfgHigh := DefaultConfig(WiFi, 3)
	cfgHigh.Redundancy = 8
	sHigh, err := NewSession(cfgHigh)
	if err != nil {
		t.Fatal(err)
	}
	if sLow.Capacity() <= sHigh.Capacity() {
		t.Fatalf("capacity low=%d high=%d; lower redundancy must carry more bits",
			sLow.Capacity(), sHigh.Capacity())
	}
}

func TestSessionResultArithmetic(t *testing.T) {
	r := SessionResult{
		Packets: 10, PacketsLost: 4,
		TagBitsSent: 1000, TagBitsDecoded: 600, BitErrors: 6,
		ElapsedSeconds: 0.01,
	}
	if got := r.ThroughputBps(); got != 60000 {
		t.Fatalf("throughput %g", got)
	}
	if got := r.BER(); got != 0.01 {
		t.Fatalf("BER %g", got)
	}
	if got := r.LossRate(); got != 0.4 {
		t.Fatalf("loss %g", got)
	}
	empty := SessionResult{}
	if empty.ThroughputBps() != 0 || empty.BER() != 1 || empty.LossRate() != 0 {
		t.Fatal("zero-value result arithmetic wrong")
	}
}

func TestDeterministicSessions(t *testing.T) {
	for _, r := range []Radio{ZigBee} {
		a, err := NewSession(DefaultConfig(r, 15))
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewSession(DefaultConfig(r, 15))
		if err != nil {
			t.Fatal(err)
		}
		ra, err := a.Run(3)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Run(3)
		if err != nil {
			t.Fatal(err)
		}
		if ra != rb {
			t.Fatalf("%v: same seed, different results: %+v vs %+v", r, ra, rb)
		}
	}
}
