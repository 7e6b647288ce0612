package experiments

import (
	"fmt"

	"repro/internal/coexist"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/tag"
)

// CDFSummary condenses a throughput CDF into the quantiles the paper
// discusses.
type CDFSummary struct {
	Median float64
	P10    float64
	P90    float64
	Points []stats.CDFPoint
}

func summarise(xs []float64) (CDFSummary, error) {
	med, err := stats.Median(xs)
	if err != nil {
		return CDFSummary{}, err
	}
	p10, err := stats.Quantile(xs, 0.1)
	if err != nil {
		return CDFSummary{}, err
	}
	p90, err := stats.Quantile(xs, 0.9)
	if err != nil {
		return CDFSummary{}, err
	}
	return CDFSummary{Median: med, P10: p10, P90: p90, Points: stats.CDF(xs)}, nil
}

var coexistExcitations = []tag.Excitation{tag.ExcitationWiFi, tag.ExcitationZigBee, tag.ExcitationBluetooth}

// Fig15Row compares WiFi goodput with and without one backscatter type.
type Fig15Row struct {
	Excitation  tag.Excitation
	WithoutMbps CDFSummary // backscatter absent
	WithMbps    CDFSummary // backscatter present
}

// String renders the row.
func (r Fig15Row) String() string {
	return fmt.Sprintf("%-15s wifi median without=%5.1f Mbps, with=%5.1f Mbps",
		r.Excitation, r.WithoutMbps.Median, r.WithMbps.Median)
}

// Fig15WiFiCoexistence reproduces Fig 15: WiFi file-transfer throughput
// CDFs with the tag absent and with it backscattering each excitation type.
// The three excitation rows run concurrently; the with/without arms of one
// row intentionally share a derived seed so the comparison stays paired.
func Fig15WiFiCoexistence(windows int, opt Options) ([]Fig15Row, error) {
	return sweep(opt, "fig15", len(coexistExcitations), func(i int, sp *obs.Span) (Fig15Row, error) {
		exc := coexistExcitations[i]
		cfg := coexist.DefaultConfig(exc)
		if windows > 0 {
			cfg.Windows = windows
		}
		cfg.Seed = runner.DeriveSeed(opt.Seed, "coexist.fig15", i)
		without, err := coexist.WiFiThroughput(cfg, false)
		if err != nil {
			return Fig15Row{}, err
		}
		with, err := coexist.WiFiThroughput(cfg, true)
		if err != nil {
			return Fig15Row{}, err
		}
		sw, err := summarise(without)
		if err != nil {
			return Fig15Row{}, err
		}
		spres, err := summarise(with)
		if err != nil {
			return Fig15Row{}, err
		}
		sp.AddPackets(int64(len(without) + len(with)))
		return Fig15Row{Excitation: exc, WithoutMbps: sw, WithMbps: spres}, nil
	})
}

// Fig16Row compares backscatter goodput with WiFi traffic present/absent.
type Fig16Row struct {
	Excitation  tag.Excitation
	AbsentKbps  CDFSummary // WiFi traffic absent
	PresentKbps CDFSummary
}

// String renders the row.
func (r Fig16Row) String() string {
	return fmt.Sprintf("%-15s backscatter median absent=%5.1f kbps, present=%5.1f kbps (p10 %5.1f -> %5.1f)",
		r.Excitation, r.AbsentKbps.Median, r.PresentKbps.Median, r.AbsentKbps.P10, r.PresentKbps.P10)
}

// Fig16BackscatterUnderWiFi reproduces Fig 16: backscatter throughput CDFs
// for each excitation with the adjacent-channel WiFi transfer on and off.
// Rows run concurrently with per-row derived seeds; the on/off arms stay
// paired on one seed.
func Fig16BackscatterUnderWiFi(windows int, opt Options) ([]Fig16Row, error) {
	return sweep(opt, "fig16", len(coexistExcitations), func(i int, sp *obs.Span) (Fig16Row, error) {
		exc := coexistExcitations[i]
		cfg := coexist.DefaultConfig(exc)
		if windows > 0 {
			cfg.Windows = windows
		}
		cfg.Seed = runner.DeriveSeed(opt.Seed, "coexist.fig16", i)
		absent, err := coexist.BackscatterThroughput(cfg, false)
		if err != nil {
			return Fig16Row{}, err
		}
		present, err := coexist.BackscatterThroughput(cfg, true)
		if err != nil {
			return Fig16Row{}, err
		}
		sa, err := summarise(absent)
		if err != nil {
			return Fig16Row{}, err
		}
		spres, err := summarise(present)
		if err != nil {
			return Fig16Row{}, err
		}
		sp.AddPackets(int64(len(absent) + len(present)))
		return Fig16Row{Excitation: exc, AbsentKbps: sa, PresentKbps: spres}, nil
	})
}
