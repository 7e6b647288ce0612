package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/runner"
)

// PowerRow itemises one translator configuration's power budget (§3.3).
type PowerRow struct {
	Excitation core.Radio
	ShiftHz    float64
	Profile    core.TagPowerProfile
}

// String renders the row.
func (r PowerRow) String() string {
	return fmt.Sprintf("%-15s shift=%5.1fMHz clock=%4.1fuW switch=%4.1fuW logic=%3.1fuW total=%4.1fuW",
		r.Excitation, r.ShiftHz/1e6, r.Profile.ClockUW, r.Profile.SwitchUW,
		r.Profile.LogicUW, r.Profile.TotalUW())
}

// PowerBudget reproduces the §3.3 tag power analysis: ~30 µW dominated by
// the 20 MHz ring-oscillator clock.
func PowerBudget() []PowerRow {
	cases := []struct {
		exc   core.Radio
		shift float64
	}{
		{core.WiFi, 20e6},      // hop to channel 13
		{core.ZigBee, 16e6},    // hop toward 2.48 GHz
		{core.Bluetooth, 20e6}, // hop plus the 500 kHz codeword toggle
	}
	out := make([]PowerRow, 0, len(cases))
	for _, c := range cases {
		out = append(out, PowerRow{
			Excitation: c.exc,
			ShiftHz:    c.shift,
			Profile:    core.TagPower(c.exc, c.shift),
		})
	}
	return out
}

// RedundancyPoint is one sample of the §3.2.1 redundancy study: tag BER and
// rate as a function of OFDM symbols per tag bit.
type RedundancyPoint struct {
	SymbolsPerBit  int
	TagBER         float64
	ThroughputKbps float64
}

// String renders the point.
func (p RedundancyPoint) String() string {
	return fmt.Sprintf("symbolsPerBit=%d BER=%7.1e thr=%6.1fkbps", p.SymbolsPerBit, p.TagBER, p.ThroughputKbps)
}

// RedundancySweep reproduces the simulation behind §3.2.1's choice of one
// tag bit per four OFDM symbols: fewer symbols per bit raise the tag rate
// but leave too little majority-vote margin over the boundary errors the
// scrambler and convolutional decoder make at each tag-bit transition. The
// four redundancy settings run concurrently on derived seed streams.
func RedundancySweep(opt Options) ([]RedundancyPoint, error) {
	spbs := []int{1, 2, 4, 8}
	return sweep(opt, "redundancy", len(spbs), func(i int, sp *span) (RedundancyPoint, error) {
		cfg := core.DefaultConfig(core.WiFi, 20)
		cfg.Redundancy = spbs[i]
		cfg.Seed = runner.DeriveSeed(opt.Seed, "power.redundancy", i)
		res, err := runSession(cfg, opt, sp)
		if err != nil {
			return RedundancyPoint{}, err
		}
		return RedundancyPoint{
			SymbolsPerBit:  spbs[i],
			TagBER:         res.BER(),
			ThroughputKbps: res.ThroughputBps() / 1e3,
		}, nil
	})
}

// QuaternaryPoint compares the eq. 4 binary and eq. 5 quaternary schemes.
type QuaternaryPoint struct {
	Scheme         string
	ThroughputKbps float64
	TagBER         float64
}

// String renders the point.
func (p QuaternaryPoint) String() string {
	return fmt.Sprintf("%-10s thr=%6.1fkbps BER=%7.1e", p.Scheme, p.ThroughputKbps, p.TagBER)
}

// QuaternaryStudy reproduces the §2.3.1 rate trade-off: at a QPSK rate
// (12 Mbps) the tag can step its phase in 90° increments (eq. 5) and carry
// two bits per window, roughly doubling the eq. 4 binary rate. The two
// schemes run concurrently on one shared derived seed, keeping the
// comparison paired.
func QuaternaryStudy(opt Options) ([]QuaternaryPoint, error) {
	schemes := []struct {
		name       string
		quaternary bool
	}{{"binary", false}, {"quaternary", true}}
	seed := runner.DeriveSeed(opt.Seed, "power.quaternary")
	return sweep(opt, "quaternary", len(schemes), func(i int, sp *span) (QuaternaryPoint, error) {
		cfg := core.DefaultConfig(core.WiFi, 5)
		cfg.WiFiRateMbps = 12
		cfg.Quaternary = schemes[i].quaternary
		cfg.Seed = seed
		res, err := runSession(cfg, opt, sp)
		if err != nil {
			return QuaternaryPoint{}, err
		}
		return QuaternaryPoint{
			Scheme:         schemes[i].name,
			ThroughputKbps: res.ThroughputBps() / 1e3,
			TagBER:         res.BER(),
		}, nil
	})
}

// CFOPoint is one sample of the carrier-frequency-offset study.
type CFOPoint struct {
	Radio          core.Radio
	CFOHz          float64
	ThroughputKbps float64
	TagBER         float64
	LossRate       float64
}

// String renders the point.
func (p CFOPoint) String() string {
	return fmt.Sprintf("%-15s cfo=%6.0fHz thr=%6.1fkbps BER=%7.1e loss=%4.2f",
		p.Radio, p.CFOHz, p.ThroughputKbps, p.TagBER, p.LossRate)
}

// CFOStudy sweeps residual carrier frequency offset over every excitation
// link. Each receiver handles offsets without touching the tag's
// modulation in its own way: WiFi with LTF + cyclic-prefix estimation and
// blind constellation squaring, ZigBee with preamble-periodicity
// estimation, Bluetooth inherently (FM discrimination turns CFO into a
// small DC bias). All (radio, offset) cells run concurrently.
func CFOStudy(opt Options) ([]CFOPoint, error) {
	sweeps := []struct {
		radio core.Radio
		dist  float64
		cfos  []float64
	}{
		{core.WiFi, 10, []float64{0, 5e3, 15e3, 30e3, 45e3}},
		{core.ZigBee, 8, []float64{0, 5e3, 10e3, 15e3}},
		{core.Bluetooth, 4, []float64{0, 10e3, 20e3, 30e3}},
	}
	type job struct {
		swIdx, cfoIdx int
	}
	var jobs []job
	for si, sw := range sweeps {
		for ci := range sw.cfos {
			jobs = append(jobs, job{si, ci})
		}
	}
	return sweep(opt, "cfo", len(jobs), func(k int, sp *span) (CFOPoint, error) {
		sw := sweeps[jobs[k].swIdx]
		cfo := sw.cfos[jobs[k].cfoIdx]
		cfg := core.DefaultConfig(sw.radio, sw.dist)
		cfg.Link.CFOHz = cfo
		cfg.Seed = runner.DeriveSeed(opt.Seed, "power.cfo", jobs[k].swIdx, jobs[k].cfoIdx)
		res, err := runSession(cfg, opt, sp)
		if err != nil {
			return CFOPoint{}, err
		}
		return CFOPoint{
			Radio:          sw.radio,
			CFOHz:          cfo,
			ThroughputKbps: res.ThroughputBps() / 1e3,
			TagBER:         res.BER(),
			LossRate:       res.LossRate(),
		}, nil
	})
}

// CollisionPoint reports tag decodability vs how many tags share a slot.
type CollisionPoint struct {
	Tags       int
	WorstBER   float64 // worst per-tag BER in the superposition
	Detectable bool    // the receiver still found a packet
}

// String renders the point.
func (p CollisionPoint) String() string {
	return fmt.Sprintf("tags=%d worstBER=%5.3f detected=%v", p.Tags, p.WorstBER, p.Detectable)
}

// CollisionStudy verifies the MAC's collision premise at sample level:
// one tag decodes cleanly, two or more superposed tags destroy each
// other's data (§2.4.1: "if two tags choose the same slot, there is a
// collision and no data is successfully transmitted"). Each population
// size gets its own session and derived seed, so the points run
// concurrently instead of sharing one session's RNG stream. Every point
// runs slot 0 of a fresh session, so an attached fault profile acts only
// through what it does at slot 0: impulsive noise and a burst fade can
// land there, while an excitation outage window opening later and a
// brownout (the reservoir starts full) never do.
func CollisionStudy(opt Options) ([]CollisionPoint, error) {
	populations := []int{1, 2, 3}
	return sweep(opt, "collision", len(populations), func(k int, sp *span) (CollisionPoint, error) {
		n := populations[k]
		cfg := core.DefaultConfig(core.WiFi, 5)
		cfg.Link.FadingK = 0
		cfg.Seed = runner.DeriveSeed(opt.Seed, "power.collision", k)
		cfg.Faults = opt.Faults
		s, err := core.NewSession(cfg)
		if err != nil {
			return CollisionPoint{}, err
		}
		data := make([][]byte, n)
		for i := range data {
			bits := make([]byte, s.Capacity())
			for j := range bits {
				bits[j] = byte((j*7 + i*3) & 1)
			}
			data[i] = bits
		}
		res, err := s.RunCollision(data)
		if err != nil {
			return CollisionPoint{}, err
		}
		sp.packets.Add(int64(n))
		worst := 0.0
		for _, b := range res.PerTagBER {
			if b > worst {
				worst = b
			}
		}
		return CollisionPoint{Tags: n, WorstBER: worst, Detectable: res.Detected}, nil
	})
}

// PilotTrackingAblation contrasts tag BER with and without receiver pilot
// phase tracking (§3.2.1: tracking erases the tag's phase modulation). The
// two arms share one derived seed and run concurrently, keeping the
// ablation paired.
func PilotTrackingAblation(opt Options) (PilotAblation, error) {
	seed := runner.DeriveSeed(opt.Seed, "power.pilot")
	bers, err := sweep(opt, "pilot", 2, func(i int, sp *span) (float64, error) {
		cfg := core.DefaultConfig(core.WiFi, 5)
		cfg.Link.FadingK = 0
		cfg.PilotPhaseTracking = i == 1
		cfg.Seed = seed
		res, err := runSession(cfg, opt, sp)
		return res.BER(), err
	})
	if err != nil {
		return PilotAblation{}, err
	}
	return PilotAblation{BEROff: bers[0], BEROn: bers[1]}, nil
}

// PilotAblation is the pilots experiment's row: tag BER with receiver
// pilot phase tracking off and on.
type PilotAblation struct {
	BEROff float64 `json:"ber_tracking_off"`
	BEROn  float64 `json:"ber_tracking_on"`
}

// String renders the ablation as the bench log's two rows.
func (a PilotAblation) String() string {
	return fmt.Sprintf("tag BER without tracking: %.4f\ntag BER with tracking:    %.4f (tracking erases the tag's phase)",
		a.BEROff, a.BEROn)
}
