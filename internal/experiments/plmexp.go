package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/channel"
	"repro/internal/plm"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/tag"
	"repro/internal/trace"
)

// Fig3Result summarises the ambient packet-duration study.
type Fig3Result struct {
	// BinCentresMs / Density form the duration PDF of Fig 3.
	BinCentresMs []float64
	Density      []float64
	// ShortFraction is the mass below 500 µs (paper: ~78%); LongFraction
	// the mass in 1.5–2.7 ms (~18%).
	ShortFraction float64
	LongFraction  float64
	// AliasProbability is the chance an ambient packet masquerades as a
	// PLM pulse within the ±25 µs bound (paper: ~0.03%).
	AliasProbability float64
}

// String renders the result as the bench log's Fig 3 block.
func (r Fig3Result) String() string {
	lines := []string{
		fmt.Sprintf("<500us fraction: %.1f%% (paper ~78%%)", r.ShortFraction*100),
		fmt.Sprintf("1.5-2.7ms fraction: %.1f%% (paper ~18%%)", r.LongFraction*100),
		fmt.Sprintf("PLM alias probability (±25us): %.4f%% (paper ~0.03%%)", r.AliasProbability*100),
		"duration PDF (ms -> density):",
	}
	for i := range r.BinCentresMs {
		lines = append(lines, fmt.Sprintf("  %5.2f %8.1f", r.BinCentresMs[i], r.Density[i]))
	}
	return strings.Join(lines, "\n")
}

// Fig3AmbientDurations samples the lecture-hall traffic model and computes
// the Fig 3 PDF plus the PLM aliasing probability. The duration and
// aliasing draws use separate derived seed streams.
func Fig3AmbientDurations(samples int, opt Options) (Fig3Result, error) {
	if samples <= 0 {
		return Fig3Result{}, fmt.Errorf("experiments: sample count %d must be positive", samples)
	}
	sp := opt.Obs.start("fig3")
	defer sp.end()
	m := trace.NewAmbientModel(runner.DeriveSeed(opt.Seed, "plm.fig3.durations"))
	durations := m.Samples(samples)

	centres, density, err := stats.Histogram(durations, 0, 2.8e-3, 28)
	if err != nil {
		return Fig3Result{}, err
	}
	res := Fig3Result{
		BinCentresMs: make([]float64, len(centres)),
		Density:      density,
	}
	for i, c := range centres {
		res.BinCentresMs[i] = c * 1e3
	}
	short, long := 0, 0
	for _, d := range durations {
		if d < 500e-6 {
			short++
		}
		if d >= 1500e-6 && d <= 2700e-6 {
			long++
		}
	}
	res.ShortFraction = float64(short) / float64(samples)
	res.LongFraction = float64(long) / float64(samples)

	scheme := plm.DefaultScheme()
	res.AliasProbability, err = trace.NewAmbientModel(runner.DeriveSeed(opt.Seed, "plm.fig3.alias")).
		AliasProbability([]float64{scheme.L0, scheme.L1}, scheme.Bound, samples)
	if err != nil {
		return Fig3Result{}, err
	}
	sp.points = int64(len(res.BinCentresMs))
	sp.samples.Add(int64(samples) * 2)
	return res, nil
}

// PLMPoint is one Fig 4 sample: scheduling-message delivery vs distance.
type PLMPoint struct {
	DistanceM float64
	Accuracy  float64 // fraction of scheduling messages decoded in full
	MarginDB  float64 // envelope-detector margin at the tag
}

// String renders the point as a bench-log row.
func (p PLMPoint) String() string {
	return fmt.Sprintf("d=%4.1fm accuracy=%5.1f%% margin=%5.1fdB", p.DistanceM, p.Accuracy*100, p.MarginDB)
}

// Fig4PLMAccuracy Monte-Carlo simulates the PLM downlink of Fig 4: a
// 15 dBm transmitter sends 8-bit scheduling messages; the tag's envelope
// detector margin shrinks with distance and each pulse decodes with the
// calibrated per-pulse probability. Each distance draws from its own
// derived RNG stream, so the points are independent jobs on the pool;
// previously one shared rng serialised the sweep and coupled every
// distance's draws to the ones before it.
func Fig4PLMAccuracy(messages int, opt Options) ([]PLMPoint, error) {
	if messages <= 0 {
		return nil, fmt.Errorf("experiments: message count %d must be positive", messages)
	}
	const msgBits = 8
	distances := []float64{1, 2, 4, 8, 12, 16, 20, 25, 30, 35, 40, 45, 50}
	return sweep(opt, "fig4", len(distances), func(i int, sp *span) (PLMPoint, error) {
		d := distances[i]
		rng := rand.New(rand.NewSource(runner.DeriveSeed(opt.Seed, "plm.fig4", i)))
		l := channel.Link{
			Deployment: channel.LOS,
			TxPowerDBm: 15, // Fig 4 runs at 15 dBm
			SystemGain: channel.DefaultSystemGainDB,
			TxToTag:    d,
		}
		margin := l.ExcitationRSSIAtTag() - tag.EnvelopeReferenceDBm
		ok := 0
		for m := 0; m < messages; m++ {
			good := true
			for b := 0; b < msgBits; b++ {
				if rng.Float64() >= plm.PulseSuccessProbability(margin) {
					good = false
					break
				}
			}
			if good {
				ok++
			}
		}
		sp.packets.Add(int64(messages))
		return PLMPoint{
			DistanceM: d,
			Accuracy:  float64(ok) / float64(messages),
			MarginDB:  margin,
		}, nil
	})
}

// PLMRate is the plmrate experiment's row: the downlink's signalling rate
// and the share of a re-packetised message's airtime that carries user
// traffic (§2.4.2), with the transmit queue busy and with it empty.
type PLMRate struct {
	RateBps        float64 `json:"rate_bps"`
	BusyEfficiency float64 `json:"busy_efficiency"`
	IdleEfficiency float64 `json:"idle_efficiency"`
}

// String renders the row for the bench log.
func (r PLMRate) String() string {
	return fmt.Sprintf("%.0f bps (paper ~500 bps); re-packetised airtime carrying traffic: %.1f%% busy queue, %.1f%% empty queue",
		r.RateBps, r.BusyEfficiency*100, r.IdleEfficiency*100)
}

// plmRate measures the plmrate row. An 8-bit scheduling message (Fig 4's
// length) is re-packetised from 6 Mbps WiFi traffic with 60 µs of
// per-packet preamble and header airtime. The busy queue holds more
// traffic than the message's bursts can carry; the empty one holds none,
// so every burst is padding.
func plmRate() (PLMRate, error) {
	s := plm.DefaultScheme()
	msg := []byte{1, 0, 1, 1, 0, 0, 1, 0}
	busy, err := s.Repacketize(1<<20, msg, 6e6, 60e-6)
	if err != nil {
		return PLMRate{}, err
	}
	idle, err := s.Repacketize(0, msg, 6e6, 60e-6)
	if err != nil {
		return PLMRate{}, err
	}
	return PLMRate{RateBps: s.RateBps(), BusyEfficiency: busy.Efficiency, IdleEfficiency: idle.Efficiency}, nil
}
