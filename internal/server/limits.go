package server

import (
	"net/http"
	"time"
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
// admission gate of MaxInflight slots that converts overload into 429 +
// Retry-After rather than parking goroutines: a request claims a slot
// without waiting or is turned away, so load cannot accumulate unbounded
// state. Each endpoint owns an independent gate, so a flood of simulate
// requests cannot starve decode, and vice versa. Once the server is
// closed, gated endpoints answer 503.
func (s *Server) instrument(name string, gated bool, h http.HandlerFunc) http.HandlerFunc {
	ep := &endpoint{}
	s.endpoints[name] = ep
	var gate chan struct{}
	if gated {
		gate = make(chan struct{}, s.cfg.MaxInflight)
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if gate != nil {
			if s.closed.Load() {
				ep.rejected.Add(1)
				writeError(w, http.StatusServiceUnavailable, "server closed; not accepting %s requests", name)
				return
			}
			select {
			case gate <- struct{}{}:
				defer func() { <-gate }()
			default:
				ep.rejected.Add(1)
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusTooManyRequests,
					"%s over capacity (%d in flight); retry shortly", name, cap(gate))
				return
			}
		}
		ep.inFlight.Add(1)
		defer ep.inFlight.Add(-1)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		r.Body = http.MaxBytesReader(sw, r.Body, s.cfg.MaxBodyBytes)
		h(sw, r)
		if sw.status >= 400 {
			ep.errors.Add(1)
		}
		ep.observe(time.Since(start))
	}
}
