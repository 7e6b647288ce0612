package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// latencyBounds are the histogram bucket upper bounds in seconds, covering
// sub-millisecond decode calls through multi-second experiment sweeps; the
// final bucket is unbounded.
var latencyBounds = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency histogram safe for concurrent
// observation; the zero value is not usable, use NewHistogram.
type Histogram struct {
	counts []atomic.Int64 // len(latencyBounds)+1, last is overflow
	sum    atomic.Int64   // nanoseconds
	n      atomic.Int64
}

// NewHistogram returns an empty latency histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]atomic.Int64, len(latencyBounds)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	sec := d.Seconds()
	i := 0
	for i < len(latencyBounds) && sec > latencyBounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
	h.n.Add(1)
}

// HistogramSnapshot summarises a histogram: count, mean and estimated
// quantiles (linear interpolation inside the winning bucket).
type HistogramSnapshot struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

// Snapshot summarises the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	var s HistogramSnapshot
	s.Count = h.n.Load()
	if s.Count == 0 {
		return s
	}
	s.MeanMs = time.Duration(h.sum.Load()/s.Count).Seconds() * 1e3
	counts := make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	s.P50Ms = quantileMs(counts, s.Count, 0.50)
	s.P90Ms = quantileMs(counts, s.Count, 0.90)
	s.P99Ms = quantileMs(counts, s.Count, 0.99)
	return s
}

// quantileMs estimates the q-quantile in milliseconds from bucket counts.
func quantileMs(counts []int64, total int64, q float64) float64 {
	target := q * float64(total)
	cum := int64(0)
	for i, c := range counts {
		if float64(cum+c) < target {
			cum += c
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = latencyBounds[i-1]
		}
		hi := 2 * lo // overflow bucket: extrapolate one octave
		if i < len(latencyBounds) {
			hi = latencyBounds[i]
		}
		frac := 1.0
		if c > 0 {
			frac = (target - float64(cum)) / float64(c)
		}
		return (lo + (hi-lo)*frac) * 1e3
	}
	return latencyBounds[len(latencyBounds)-1] * 1e3
}

// Endpoint aggregates one HTTP endpoint's counters and latency histogram.
// All fields are safe for concurrent use.
type Endpoint struct {
	Requests atomic.Int64 // completed requests (any status)
	Errors   atomic.Int64 // completed with status >= 400 (not counting rejections)
	Rejected atomic.Int64 // turned away with 429 backpressure, or 503 once the server is closed
	InFlight atomic.Int64 // currently executing
	Latency  *Histogram
}

// NewEndpoint returns an endpoint metric set with an empty histogram.
func NewEndpoint() *Endpoint { return &Endpoint{Latency: NewHistogram()} }

// EndpointSnapshot is the JSON form of an endpoint's metrics.
type EndpointSnapshot struct {
	Requests int64             `json:"requests"`
	Errors   int64             `json:"errors,omitempty"`
	Rejected int64             `json:"rejected,omitempty"`
	InFlight int64             `json:"in_flight,omitempty"`
	Latency  HistogramSnapshot `json:"latency"`
}

// Snapshot captures the endpoint's current counters.
func (e *Endpoint) Snapshot() EndpointSnapshot {
	return EndpointSnapshot{
		Requests: e.Requests.Load(),
		Errors:   e.Errors.Load(),
		Rejected: e.Rejected.Load(),
		InFlight: e.InFlight.Load(),
		Latency:  e.Latency.Snapshot(),
	}
}

// EndpointSet is a named collection of endpoint metrics, growable on
// demand and safe for concurrent use.
type EndpointSet struct {
	mu   sync.Mutex
	byID map[string]*Endpoint
}

// NewEndpointSet returns an empty set.
func NewEndpointSet() *EndpointSet { return &EndpointSet{byID: map[string]*Endpoint{}} }

// Get returns the named endpoint's metrics, creating them on first use.
func (s *EndpointSet) Get(name string) *Endpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.byID[name]
	if !ok {
		e = NewEndpoint()
		s.byID[name] = e
	}
	return e
}

// Snapshot captures every endpoint's metrics keyed by name.
func (s *EndpointSet) Snapshot() map[string]EndpointSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]EndpointSnapshot, len(s.byID))
	for name, e := range s.byID {
		out[name] = e.Snapshot()
	}
	return out
}
