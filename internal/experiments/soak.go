package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fec"
	"repro/internal/runner"
)

// SoakCell is one (radio, fault-intensity) cell of the chaos soak: a
// stressed mid-range link run under the profile scaled to Intensity.
type SoakCell struct {
	Radio     core.Radio
	DistanceM float64
	Intensity float64
	LossRate  float64
	BER       float64
	// Residual is the fraction of sent tag bits that did not arrive
	// intact: loss + (1-loss)·BER. Unlike BER alone it has no survivor
	// bias — packets that fade out entirely count against it — so it is
	// the statistic the monotonicity invariant is asserted on.
	Residual float64
	// CodedBER and CodedResidual are the same statistics for a twin
	// session running the RS-coded uplink over the identical channel
	// realisation (same seed; the coded path rewrites only transmitted
	// bit content, never the draw order). The soak asserts CodedResidual
	// never exceeds Residual beyond finite-sample slack: correction must
	// not make a faulted link worse.
	CodedBER      float64
	CodedResidual float64
	Packets       int
}

// String renders the cell as a bench-log row.
func (c SoakCell) String() string {
	return fmt.Sprintf("%-15s d=%4.1fm λ=%.2f loss=%4.2f BER=%7.1e residual=%.3f coded=%.3f",
		c.Radio, c.DistanceM, c.Intensity, c.LossRate, c.BER, c.Residual, c.CodedResidual)
}

// SoakResult is the chaos soak's outcome: every cell plus the invariant
// violations found. An empty Violations slice is the pass condition.
type SoakResult struct {
	Profile    string
	Cells      []SoakCell
	Violations []string
}

// soakIntensities is the severity ladder each radio is swept over. 0 is
// the faults-off baseline (WithIntensity degenerates it to a nil profile).
var soakIntensities = []float64{0, 0.35, 0.7, 1}

// soakDistances places each radio at a stressed mid-range point: close
// enough that the benign link works, far enough that injected impairments
// have real consequences.
var soakDistances = map[core.Radio]float64{
	core.WiFi:      10,
	core.ZigBee:    8,
	core.Bluetooth: 6,
}

// residualSlack absorbs finite-sample noise in the monotonicity check:
// with tens of packets per cell a higher fault intensity may measure
// slightly cleaner by luck. The effective slack never drops below 1.5
// lost packets' worth, so quick runs (few packets, coarse loss quanta)
// don't trip false violations.
const residualSlack = 0.15

func slackFor(packets int) float64 {
	if s := 1.5 / float64(packets); s > residualSlack {
		return s
	}
	return residualSlack
}

// Soak sweeps the fault profile's intensity from zero to full across all
// three radios and asserts the robustness invariants:
//
//   - no cell panics (a panic is converted into a violation, not a crash);
//   - every cell — uncoded and RS-coded alike — is bit-identical across
//     worker counts 1, 4 and all-cores under its fixed seed;
//   - the residual corruption (loss + surviving-bit errors) is monotone
//     non-decreasing in fault intensity, within residualSlack;
//   - at every intensity the coded residual stays within slack of the
//     uncoded residual: the RS uplink never makes a faulted link worse.
//
// The returned error covers harness failures (bad profile, session
// construction); invariant breaks land in SoakResult.Violations so one
// run reports all of them.
func Soak(profile *faults.Profile, opt Options) (SoakResult, error) {
	if profile == nil {
		return SoakResult{}, fmt.Errorf("experiments: soak needs a fault profile (try \"chaos\")")
	}
	if err := profile.Validate(); err != nil {
		return SoakResult{}, err
	}
	res := SoakResult{Profile: profile.String()}
	if profile.WithIntensity(0) != nil {
		res.Violations = append(res.Violations,
			"WithIntensity(0) did not disable the profile: the zero-intensity baseline is not faults-off")
	}

	radios := []core.Radio{core.WiFi, core.ZigBee, core.Bluetooth}
	type cellOut struct {
		cell      SoakCell
		violation string
	}
	cells, err := sweep(opt, "soak", len(radios)*len(soakIntensities), func(k int, sp *span) (cellOut, error) {
		radio := radios[k/len(soakIntensities)]
		lam := soakIntensities[k%len(soakIntensities)]
		cell, violation, err := soakCell(radio, profile, lam,
			runner.DeriveSeed(opt.Seed, "soak", int(radio)), opt.packets())
		if err != nil {
			return cellOut{}, err
		}
		sp.packets.Add(int64(cell.Packets))
		return cellOut{cell, violation}, nil
	})
	if err != nil {
		return res, err
	}
	for _, c := range cells {
		res.Cells = append(res.Cells, c.cell)
		if c.violation != "" {
			res.Violations = append(res.Violations, c.violation)
		}
	}

	// Coded invariant: correction must not raise the residual at any
	// fault intensity.
	slack := slackFor(opt.packets())
	for _, c := range res.Cells {
		if c.CodedResidual > c.Residual+slack {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"%v λ=%.2f: coded residual %.3f exceeds uncoded %.3f beyond slack %.3f",
				c.Radio, c.Intensity, c.CodedResidual, c.Residual, slack))
		}
	}

	// Monotonicity: within each radio's intensity ladder, residual
	// corruption must not drop by more than the finite-sample slack.
	for r := range radios {
		ladder := res.Cells[r*len(soakIntensities) : (r+1)*len(soakIntensities)]
		for i := 1; i < len(ladder); i++ {
			if ladder[i].Residual < ladder[i-1].Residual-slack {
				res.Violations = append(res.Violations, fmt.Sprintf(
					"%v: residual not monotone in intensity: λ=%.2f → %.3f but λ=%.2f → %.3f",
					ladder[i].Radio, ladder[i-1].Intensity, ladder[i-1].Residual,
					ladder[i].Intensity, ladder[i].Residual))
			}
		}
	}
	return res, nil
}

// soakCell runs one (radio, intensity) cell at worker counts 1, 4 and
// all-cores, checking bit-identity between them. A panic anywhere in the
// stack becomes a violation string instead of taking the soak down.
func soakCell(radio core.Radio, profile *faults.Profile, lam float64, seed int64, packets int) (cell SoakCell, violation string, err error) {
	defer func() {
		if r := recover(); r != nil {
			violation = fmt.Sprintf("%v λ=%.2f: panic: %v", radio, lam, r)
			err = nil
		}
	}()
	dist := soakDistances[radio]
	cfg := core.DefaultConfig(radio, dist)
	cfg.Seed = seed
	cfg.Faults = profile.WithIntensity(lam)
	if radio == core.WiFi {
		cfg.PayloadSize = 400 // soak-sized packets; the PHY path is identical
	}
	s, sessErr := core.NewSession(cfg)
	if sessErr != nil {
		return cell, "", sessErr
	}
	base, runErr := s.RunParallel(packets, 1)
	if runErr != nil {
		return cell, "", runErr
	}
	for _, workers := range []int{4, 0} {
		again, runErr := s.RunParallel(packets, workers)
		if runErr != nil {
			return cell, "", runErr
		}
		if again != base {
			return cell, fmt.Sprintf("%v λ=%.2f: result depends on worker count (%d workers diverged)",
				radio, lam, workers), nil
		}
	}

	// Twin session over the identical channel realisation, RS-coded. The
	// same worker-count sweep guards the coded decode path's determinism.
	ccfg := cfg
	ccfg.Coding = &soakCode
	cs, sessErr := core.NewSession(ccfg)
	if sessErr != nil {
		return cell, "", sessErr
	}
	coded, runErr := cs.RunParallel(packets, 1)
	if runErr != nil {
		return cell, "", runErr
	}
	for _, workers := range []int{4, 0} {
		again, runErr := cs.RunParallel(packets, workers)
		if runErr != nil {
			return cell, "", runErr
		}
		if again != coded {
			return cell, fmt.Sprintf("%v λ=%.2f: coded result depends on worker count (%d workers diverged)",
				radio, lam, workers), nil
		}
	}

	ber := base.BER()
	loss := base.LossRate()
	codedLoss := coded.LossRate()
	cell = SoakCell{
		Radio:         radio,
		DistanceM:     dist,
		Intensity:     lam,
		LossRate:      loss,
		BER:           ber,
		Residual:      loss + (1-loss)*ber,
		CodedBER:      coded.CodedBER(),
		CodedResidual: codedLoss + (1-codedLoss)*coded.CodedBER(),
		Packets:       (base.Packets + coded.Packets) * 3,
	}
	return cell, "", nil
}

// soakCode is the RS code the soak's coded twin sessions run: a short
// high-redundancy code (t=3 per codeword) whose correction radius is
// meaningful on soak-stressed links.
var soakCode = fec.Config{N: 15, K: 9}
