// Package experiments regenerates every table and figure of the paper's
// evaluation (§4). Each Fig* function runs the corresponding experiment on
// the simulation substrate and returns the same rows/series the paper
// plots. Registry names them for cmd/freerider-bench and the HTTP
// service's /v1/experiments; bench_test.go times them. QuickOptions and
// the registry's quick effort trade sample count for runtime so the full
// suite stays usable in tests.
//
// Every experiment runs on the internal/runner deterministic worker pool:
// points execute on all cores but each draws its RNG stream from
// runner.DeriveSeed(seed, experiment, indices...), so results are
// bit-identical for any worker count and no two experiments share a noise
// stream.
package experiments

import (
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/runner"
)

// Options tunes experiment effort.
type Options struct {
	// PacketsPerPoint is the excitation packet count per sweep point for
	// the sample-level link experiments.
	PacketsPerPoint int
	// Seed drives all stochastic elements.
	Seed int64
	// Workers bounds the parallel worker pool; 0 means all cores. Results
	// do not depend on it.
	Workers int
	// Faults attaches a fault-injection profile to every link session the
	// experiments build, and its RoundCorruption hook to MAC runs. Nil
	// keeps every link benign and bit-identical to a profile-free run.
	Faults *faults.Profile
	// Obs, when non-nil, receives per-experiment run metrics (wall time,
	// packets, samples, pool utilisation).
	Obs *obs.Collector
}

// DefaultOptions returns publication-effort settings.
func DefaultOptions() Options { return Options{PacketsPerPoint: 20, Seed: 1} }

// QuickOptions returns CI-effort settings.
func QuickOptions() Options { return Options{PacketsPerPoint: 4, Seed: 1} }

func (o Options) packets() int {
	if o.PacketsPerPoint <= 0 {
		return 4
	}
	return o.PacketsPerPoint
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return runner.DefaultWorkers()
	}
	return o.Workers
}

// span opens a metrics span on the options' collector (nil-safe).
func (o Options) span(name string) *obs.Span {
	return o.Obs.Start(name)
}
