package experiments

import (
	"fmt"

	"repro/internal/mac"
	"repro/internal/runner"
	"repro/internal/sim"
)

// MultiTagPoint is one Fig 17 sample.
type MultiTagPoint struct {
	Tags              int
	AlohaKbps         float64 // "measured" Framed Slotted Aloha aggregate
	TDMKbps           float64 // collision-free baseline ("simulated" TDM)
	FairnessIndex     float64 // Jain's index over per-tag delivered bits
	MeanSlotsPerRound float64
}

// String renders the point as a bench-log row.
func (p MultiTagPoint) String() string {
	return fmt.Sprintf("tags=%3d aloha=%5.1fkbps tdm=%5.1fkbps fairness=%.3f slots=%.1f",
		p.Tags, p.AlohaKbps, p.TDMKbps, p.FairnessIndex, p.MeanSlotsPerRound)
}

// fig17Populations are the tag counts of Fig 17, extended (as the paper's
// simulation does) beyond the physically built population.
var fig17Populations = []int{4, 8, 12, 16, 20, 40, 100}

// Fig17FirmwareLevel re-runs the Fig 17 populations through the
// firmware-level discrete-event simulator (internal/sim), where control
// losses emerge from per-pulse envelope failures in real tag state
// machines instead of an analytic message-success probability. Agreement
// with Fig17MultiTag cross-validates the two models. Populations run
// concurrently, each on its own derived seed stream.
func Fig17FirmwareLevel(rounds int, opt Options) ([]MultiTagPoint, error) {
	if rounds <= 0 {
		rounds = 12
	}
	return sweep(opt, "fig17-firmware", len(fig17Populations), func(i int, sp *span) (MultiTagPoint, error) {
		n := fig17Populations[i]
		res, err := sim.Run(n, rounds, runner.DeriveSeed(opt.Seed, "mac.fig17.firmware", i))
		if err != nil {
			return MultiTagPoint{}, err
		}
		j, err := res.FairnessIndex()
		if err != nil {
			return MultiTagPoint{}, err
		}
		slots := 0.0
		for _, r := range res.Rounds {
			slots += float64(r.Slots)
		}
		sp.packets.Add(int64(rounds * n))
		return MultiTagPoint{
			Tags:              n,
			AlohaKbps:         res.AggregateThroughputBps() / 1e3,
			FairnessIndex:     j,
			MeanSlotsPerRound: slots / float64(len(res.Rounds)),
		}, nil
	})
}

// Fig17MultiTag reproduces both panels of Fig 17: aggregate throughput and
// Jain's fairness index for 4–20 tags, extended beyond the built population
// to show the asymptotes. Populations run concurrently; the aloha and TDM
// arms of one population share a derived seed so the comparison stays
// paired.
func Fig17MultiTag(rounds int, opt Options) ([]MultiTagPoint, error) {
	if rounds <= 0 {
		rounds = 12 // a measurement-sized run, matching Fig 17b's variance
	}
	return sweep(opt, "fig17", len(fig17Populations), func(i int, sp *span) (MultiTagPoint, error) {
		n := fig17Populations[i]
		seed := runner.DeriveSeed(opt.Seed, "mac.fig17", i)
		aCfg := mac.DefaultConfig(mac.FramedSlottedAloha, n)
		aCfg.Seed = seed
		aCfg.RoundCorruption = opt.Faults.RoundCorruption(seed)
		aloha, err := mac.Run(aCfg, rounds)
		if err != nil {
			return MultiTagPoint{}, err
		}
		tCfg := mac.DefaultConfig(mac.TDM, n)
		tCfg.Seed = seed
		tCfg.RoundCorruption = opt.Faults.RoundCorruption(seed)
		tdm, err := mac.Run(tCfg, rounds)
		if err != nil {
			return MultiTagPoint{}, err
		}
		j, err := aloha.FairnessIndex()
		if err != nil {
			return MultiTagPoint{}, err
		}
		slots := 0.0
		for _, r := range aloha.Rounds {
			slots += float64(r.Slots)
		}
		sp.packets.Add(int64(rounds * n))
		return MultiTagPoint{
			Tags:              n,
			AlohaKbps:         aloha.AggregateThroughputBps() / 1e3,
			TDMKbps:           tdm.AggregateThroughputBps() / 1e3,
			FairnessIndex:     j,
			MeanSlotsPerRound: slots / float64(len(aloha.Rounds)),
		}, nil
	})
}
