package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/waveform"
)

// LinkPoint is one distance sample of a throughput/BER/RSSI sweep
// (the three panels of Figs 10–13).
type LinkPoint struct {
	DistanceM      float64
	ThroughputKbps float64
	BER            float64
	RSSIdBm        float64
	LossRate       float64
}

// String renders the point as a bench-log row.
func (p LinkPoint) String() string {
	return fmt.Sprintf("d=%4.1fm thr=%6.1fkbps BER=%7.1e RSSI=%6.1fdBm loss=%4.2f",
		p.DistanceM, p.ThroughputKbps, p.BER, p.RSSIdBm, p.LossRate)
}

// linkSweep runs one session per distance on the shared worker pool.
// Points are independent — each derives its own seed stream from the sweep
// domain — so they run on all cores; results stay in input order and are
// bit-identical to a serial sweep. The domain string keeps distinct sweeps
// (fig10 vs fig11 vs ...) on uncorrelated noise streams even under the
// same base seed. All points share one ContentSeed and one waveform cache:
// packet content is identical across distances, so each excitation is
// synthesised once and replayed through every point's own channel.
func linkSweep(domain string, radio core.Radio, distances []float64, opt Options,
	mutate func(*core.Config)) ([]LinkPoint, error) {
	waves := waveform.New(0)
	contentSeed := runner.DeriveSeed(opt.Seed, "links."+domain+".content")
	return sweep(opt, domain, len(distances), func(i int, sp *span) (LinkPoint, error) {
		cfg := core.DefaultConfig(radio, distances[i])
		cfg.Seed = runner.DeriveSeed(opt.Seed, "links."+domain, i)
		cfg.ContentSeed = contentSeed
		cfg.Waveforms = waves
		if mutate != nil {
			mutate(&cfg)
		}
		res, err := runSession(cfg, opt, sp)
		if err != nil {
			return LinkPoint{}, err
		}
		return LinkPoint{
			DistanceM:      distances[i],
			ThroughputKbps: res.ThroughputBps() / 1e3,
			BER:            res.BER(),
			RSSIdBm:        cfg.Link.BackscatterRSSI(),
			LossRate:       res.LossRate(),
		}, nil
	})
}

// Fig10WiFiLOS sweeps the WiFi LOS deployment of Fig 10 (throughput, BER
// and RSSI vs tag-to-receiver distance at 11 dBm, TX-to-tag 1 m).
func Fig10WiFiLOS(opt Options) ([]LinkPoint, error) {
	d := []float64{1, 5, 10, 14, 18, 22, 26, 30, 34, 38, 42, 45}
	return linkSweep("fig10", core.WiFi, d, opt, nil)
}

// Fig11WiFiNLOS sweeps the through-the-wall deployment of Fig 11 (an extra
// wall appears beyond 22 m, Fig 9b).
func Fig11WiFiNLOS(opt Options) ([]LinkPoint, error) {
	d := []float64{1, 4, 8, 12, 14, 16, 18, 20, 22, 25}
	return linkSweep("fig11", core.WiFi, d, opt, (*core.Config).SetNLOS)
}

// Fig12ZigBeeLOS sweeps the ZigBee LOS deployment of Fig 12 (5 dBm).
func Fig12ZigBeeLOS(opt Options) ([]LinkPoint, error) {
	d := []float64{1, 4, 8, 12, 16, 20, 22, 25}
	return linkSweep("fig12", core.ZigBee, d, opt, nil)
}

// Fig13BluetoothLOS sweeps the Bluetooth LOS deployment of Fig 13 (0 dBm).
func Fig13BluetoothLOS(opt Options) ([]LinkPoint, error) {
	d := []float64{1, 2, 4, 6, 8, 10, 12, 14}
	return linkSweep("fig13", core.Bluetooth, d, opt, nil)
}

// RegimePoint is one Fig 14 sample: the maximum tag-to-receiver distance
// sustaining backscatter at a given transmitter-to-tag distance.
type RegimePoint struct {
	Radio      core.Radio
	TxToTagM   float64
	MaxRxToTag float64
}

// String renders the point as a bench-log row.
func (p RegimePoint) String() string {
	return fmt.Sprintf("%-15s txToTag=%3.1fm maxRxToTag=%4.1fm", p.Radio, p.TxToTagM, p.MaxRxToTag)
}

// Fig14OperatingRegime maps the operational region of Fig 14: for each
// radio and TX-to-tag distance, the farthest receiver distance at which at
// least ~20% of backscattered packets still decode. Each (radio, txIdx,
// rxIdx) cell derives its own seed — previously both this experiment and
// the link sweeps could draw the same additive seed (e.g. base+0) and leak
// correlated AWGN/fading across experiments.
func Fig14OperatingRegime(opt Options) ([]RegimePoint, error) {
	grids := map[core.Radio][]float64{
		core.WiFi:      {1, 2, 4, 6, 8, 10, 14, 18, 22, 26, 30, 34, 38, 42, 46},
		core.ZigBee:    {1, 2, 4, 6, 8, 10, 14, 18, 22, 26},
		core.Bluetooth: {1, 2, 4, 6, 8, 10, 12, 14},
	}
	txDistances := map[core.Radio][]float64{
		core.WiFi:      {0.5, 1, 1.5, 2, 3, 4, 4.5},
		core.ZigBee:    {0.5, 1, 1.5, 2, 2.5},
		core.Bluetooth: {0.5, 1, 1.5, 2},
	}
	type job struct {
		radio core.Radio
		txIdx int
		txd   float64
	}
	var jobs []job
	for _, radio := range []core.Radio{core.WiFi, core.ZigBee, core.Bluetooth} {
		for i, txd := range txDistances[radio] {
			jobs = append(jobs, job{radio, i, txd})
		}
	}
	return sweep(opt, "fig14", len(jobs), func(k int, sp *span) (RegimePoint, error) {
		jb := jobs[k]
		maxRx := 0.0
		for j, rxd := range grids[jb.radio] {
			cfg := core.DefaultConfig(jb.radio, rxd)
			cfg.Link.TxToTag = jb.txd
			cfg.Seed = runner.DeriveSeed(opt.Seed, "links.fig14", int(jb.radio), jb.txIdx, j)
			res, err := runSession(cfg, opt, sp)
			if err != nil {
				return RegimePoint{}, err
			}
			if res.LossRate() <= 0.8 && res.TagBitsDecoded > 0 {
				maxRx = rxd
			}
		}
		return RegimePoint{Radio: jb.radio, TxToTagM: jb.txd, MaxRxToTag: maxRx}, nil
	})
}
