package server

import (
	"net/http"
	"time"

	"repro/internal/obs"
)

// metricsResponse is the GET /metrics payload: per-endpoint counters and
// latency histograms (internal/obs), and the waveform cache's size,
// lookup counters (hits/misses/rejected/duplicates/coalesced) and lock
// wait, read as one consistent snapshot.
type metricsResponse struct {
	UptimeSeconds float64                         `json:"uptime_seconds"`
	Endpoints     map[string]obs.EndpointSnapshot `json:"endpoints"`
	WaveformCache obs.CacheStats                  `json:"waveform_cache"`
	FEC           obs.FECStats                    `json:"fec"`
	ReceiverModes obs.ModeStats                   `json:"receiver_modes"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, metricsResponse{
		UptimeSeconds: timeSince(s.start),
		Endpoints:     s.endpoints.Snapshot(),
		WaveformCache: s.waveforms.Stats(),
		FEC:           s.fec.Snapshot(),
		ReceiverModes: s.modes.Snapshot(),
	})
}

func timeSince(t time.Time) float64 { return time.Since(t).Seconds() }
