// Package experiments regenerates every table and figure of the paper's
// evaluation (§4). Each Fig* function runs the corresponding experiment on
// the simulation substrate and returns the same rows/series the paper
// plots. Registry names them for cmd/freerider-bench and the HTTP
// service's /v1/experiments; bench_test.go times them. QuickOptions and
// the registry's quick effort trade sample count for runtime so the full
// suite stays usable in tests.
//
// Every sweep runs through one harness, sweep, on the internal/runner
// deterministic worker pool: points execute on all cores but each draws
// its RNG stream from runner.DeriveSeed(seed, experiment, indices...), so
// results are bit-identical for any worker count and no two experiments
// share a noise stream. The same harness meters each sweep on Options.Obs
// (points, pool busy time), and runSession builds and meters the link
// sessions. Every link session the experiments run carries
// Options.Faults, except the soak's, which carry its profile argument
// scaled per cell.
package experiments

import (
	"repro/internal/core"
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

// sweep is the harness every experiment sweep runs on: it computes point
// i for i in [0, n) on the deterministic worker pool (opt.Workers, 0 for
// all cores) under a metrics span named name, records the pool's busy time
// and n points on it, and returns the points in index order, or the
// lowest-index error.
func sweep[T any](opt Options, name string, n int, point func(i int, sp *obs.Span) (T, error)) ([]T, error) {
	sp := opt.Obs.Start(name)
	out := make([]T, n)
	st, err := runner.MapStats(n, opt.Workers, func(i int) error {
		var err error
		out[i], err = point(i, sp)
		return err
	})
	sp.RecordPool(st.Workers, st.Busy)
	sp.AddPoints(int64(n))
	sp.End()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runSession builds a session for cfg with the options' fault profile
// attached, runs opt.packets() packets through it and counts them and
// their samples on sp.
func runSession(cfg core.Config, opt Options, sp *obs.Span) (core.SessionResult, error) {
	cfg.Faults = opt.Faults
	s, err := core.NewSession(cfg)
	if err != nil {
		return core.SessionResult{}, err
	}
	res, err := s.Run(opt.packets())
	if err != nil {
		return core.SessionResult{}, err
	}
	sp.AddPackets(int64(res.Packets))
	sp.AddSamples(res.SamplesProcessed)
	return res, nil
}
