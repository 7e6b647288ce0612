package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Report is one experiment's run metrics: wall time, the work it pushed
// through the PHY chains (packets, baseband samples, sweep points) and its
// worker-pool statistics. cmd/freerider-bench prints one per sweep and
// emits them as JSON, as does the service's /v1/experiments/{name}.
type Report struct {
	Name            string  `json:"name"`
	WallSeconds     float64 `json:"wall_seconds"`
	Points          int64   `json:"points,omitempty"`
	Packets         int64   `json:"packets,omitempty"`
	Samples         int64   `json:"samples,omitempty"`
	Workers         int     `json:"workers,omitempty"`
	BusySeconds     float64 `json:"busy_seconds,omitempty"`
	PointsPerSecond float64 `json:"points_per_second,omitempty"`
	Utilisation     float64 `json:"utilisation,omitempty"`
}

// String renders the report as a one-line bench log entry.
func (r Report) String() string {
	s := fmt.Sprintf("%s: %.3fs", r.Name, r.WallSeconds)
	if r.Points > 0 {
		s += fmt.Sprintf(", %d points (%.1f/s)", r.Points, r.PointsPerSecond)
	}
	if r.Packets > 0 {
		s += fmt.Sprintf(", %d packets", r.Packets)
	}
	if r.Samples > 0 {
		s += fmt.Sprintf(", %.2fM samples", float64(r.Samples)/1e6)
	}
	if r.Workers > 0 {
		s += fmt.Sprintf(", %d workers at %.0f%% busy", r.Workers, r.Utilisation*100)
	}
	return s
}

// Collector accumulates the reports of completed experiment runs, safe
// for concurrent use. The zero value is ready; a nil collector discards
// everything.
type Collector struct {
	mu      sync.Mutex
	reports []Report
}

// Reports returns a copy of every report recorded so far, in end order.
func (c *Collector) Reports() []Report {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Report(nil), c.reports...)
}

// span meters one experiment run. Pool workers add packets and samples
// concurrently; the run's own goroutine sets the other counts before end.
type span struct {
	c     *Collector
	name  string
	start time.Time

	packets, samples atomic.Int64
	points           int64
	workers          int
	busy             time.Duration
}

// start opens a span named name; on a nil collector its report is
// dropped at end.
func (c *Collector) start(name string) *span {
	return &span{c: c, name: name, start: time.Now()}
}

// end closes the span and files its report with the collector.
func (s *span) end() {
	if s.c == nil {
		return
	}
	wall := time.Since(s.start).Seconds()
	r := Report{
		Name:        s.name,
		WallSeconds: wall,
		Points:      s.points,
		Packets:     s.packets.Load(),
		Samples:     s.samples.Load(),
		Workers:     s.workers,
		BusySeconds: s.busy.Seconds(),
	}
	if wall > 0 {
		r.PointsPerSecond = float64(r.Points) / wall
		if r.Workers > 0 {
			r.Utilisation = min(r.BusySeconds/(wall*float64(r.Workers)), 1)
		}
	}
	s.c.mu.Lock()
	s.c.reports = append(s.c.reports, r)
	s.c.mu.Unlock()
}
