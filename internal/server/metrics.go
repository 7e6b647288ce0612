package server

import (
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/waveform"
)

// metricsResponse is the GET /metrics payload: per-endpoint counters and
// latency histograms, the waveform cache's size, lookup counters
// (hits/misses/rejected/duplicates/coalesced) and lock wait, read as one
// consistent snapshot, and the FEC and receiver-mode tallies.
type metricsResponse struct {
	UptimeSeconds float64                     `json:"uptime_seconds"`
	Endpoints     map[string]endpointSnapshot `json:"endpoints"`
	WaveformCache waveform.CacheStats         `json:"waveform_cache"`
	tallies
}

// tallies are the counters the handlers move, guarded by Server.mu.
type tallies struct {
	// FEC is the serve layer's Reed-Solomon codec work.
	FEC struct {
		ChunksEncoded    int64 `json:"chunks_encoded"`
		ChunksDecoded    int64 `json:"chunks_decoded"`
		DecodeFailures   int64 `json:"decode_failures"`
		SymbolsCorrected int64 `json:"symbols_corrected"`
	} `json:"fec"`
	// ReceiverModes splits decode and simulate requests into dual- and
	// single-receiver runs, and totals the stream elements the decoders
	// dropped for lack of a counterpart to compare against.
	ReceiverModes struct {
		DualDecodes     int64 `json:"dual_decodes"`
		SingleDecodes   int64 `json:"single_decodes"`
		DualSimulates   int64 `json:"dual_simulates"`
		SingleSimulates int64 `json:"single_simulates"`
		DroppedElements int64 `json:"dropped_elements"`
	} `json:"receiver_modes"`
}

// tally applies f to the server's tallies under their lock.
func (s *Server) tally(f func(t *tallies)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f(&s.tallies)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	resp := metricsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Endpoints:     make(map[string]endpointSnapshot, len(s.endpoints)),
		WaveformCache: s.waveforms.Stats(),
	}
	for name, ep := range s.endpoints {
		resp.Endpoints[name] = ep.snapshot()
	}
	s.tally(func(t *tallies) { resp.tallies = *t })
	writeJSON(w, http.StatusOK, resp)
}

// latencyBounds are the histogram bucket upper bounds in seconds, covering
// sub-millisecond decode calls through multi-second experiment sweeps; the
// final bucket is unbounded.
var latencyBounds = [...]float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// endpoint is one route's counters and fixed-bucket latency histogram,
// moved by concurrent requests. Every request that runs its handler lands
// in exactly one bucket, so the bucket total is the request count.
type endpoint struct {
	// errors counts requests completed with status >= 400; rejected
	// counts those turned away with 429 backpressure, or 503 once the
	// server is closed.
	errors, rejected atomic.Int64
	inFlight         atomic.Int64
	counts           [len(latencyBounds) + 1]atomic.Int64 // last is overflow
	sumNs            atomic.Int64
}

// observe records one completed request's latency.
func (e *endpoint) observe(d time.Duration) {
	sec := d.Seconds()
	i := 0
	for i < len(latencyBounds) && sec > latencyBounds[i] {
		i++
	}
	e.counts[i].Add(1)
	e.sumNs.Add(int64(d))
}

// endpointSnapshot is the JSON form of an endpoint's metrics.
type endpointSnapshot struct {
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors,omitempty"`
	Rejected int64 `json:"rejected,omitempty"`
	InFlight int64 `json:"in_flight,omitempty"`
	// Latency holds the count, mean and quantiles estimated by linear
	// interpolation inside the winning bucket.
	Latency struct {
		Count  int64   `json:"count"`
		MeanMs float64 `json:"mean_ms"`
		P50Ms  float64 `json:"p50_ms"`
		P90Ms  float64 `json:"p90_ms"`
		P99Ms  float64 `json:"p99_ms"`
	} `json:"latency"`
}

func (e *endpoint) snapshot() endpointSnapshot {
	s := endpointSnapshot{
		Errors:   e.errors.Load(),
		Rejected: e.rejected.Load(),
		InFlight: e.inFlight.Load(),
	}
	var counts [len(latencyBounds) + 1]int64
	for i := range e.counts {
		counts[i] = e.counts[i].Load()
		s.Requests += counts[i]
	}
	lat := &s.Latency
	if lat.Count = s.Requests; lat.Count == 0 {
		return s
	}
	lat.MeanMs = time.Duration(e.sumNs.Load()/lat.Count).Seconds() * 1e3
	lat.P50Ms = quantileMs(counts[:], lat.Count, 0.50)
	lat.P90Ms = quantileMs(counts[:], lat.Count, 0.90)
	lat.P99Ms = quantileMs(counts[:], lat.Count, 0.99)
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
