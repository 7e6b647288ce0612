package server

import (
	"net/http"
	"time"

	"repro/internal/runner"
)

// statusWriter records the status code a handler wrote so the middleware
// can count errors.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the server's serving discipline:
// request/latency/error metrics always, and — when gated — a per-endpoint
// concurrency gate that converts overload into 429 + Retry-After rather
// than parking goroutines. Each endpoint owns an independent gate, so a
// flood of simulate requests cannot starve decode, and vice versa. Once
// the server is closed, gated endpoints answer 503.
func (s *Server) instrument(name string, gated bool, h http.HandlerFunc) http.HandlerFunc {
	ep := s.endpoints.Get(name)
	var gate *runner.Gate
	if gated {
		gate = runner.NewGate(s.cfg.MaxInflight)
		s.gates[name] = gate
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if gate != nil {
			if s.closed.Load() {
				ep.Rejected.Add(1)
				writeError(w, http.StatusServiceUnavailable, "server closed; not accepting %s requests", name)
				return
			}
			if !gate.TryEnter() {
				ep.Rejected.Add(1)
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusTooManyRequests,
					"%s over capacity (%d in flight); retry shortly", name, gate.Capacity())
				return
			}
			defer gate.Leave()
		}
		ep.InFlight.Add(1)
		defer ep.InFlight.Add(-1)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		r.Body = http.MaxBytesReader(sw, r.Body, s.cfg.MaxBodyBytes)
		h(sw, r)
		ep.Requests.Add(1)
		if sw.status >= 400 {
			ep.Errors.Add(1)
		}
		ep.Latency.Observe(time.Since(start))
	}
}
