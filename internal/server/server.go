// Package server exposes the FreeRider reproduction as an HTTP/JSON
// service (cmd/freerider-serve): the library's hot paths — stream-level
// codeword translation (/v1/encode, /v1/decode), end-to-end link
// simulation (/v1/simulate) and the experiment sweeps
// (/v1/experiments/{name}) — plus /healthz and /metrics.
//
// The middle layer is where the serving engineering lives:
//
//   - a session pool caching constructed PHY/codebook state keyed by a
//     hash of the link configuration (LRU with a measured hit rate), so a
//     hot config pays NewSession once;
//   - per-endpoint concurrency gates that turn overload into 429 +
//     Retry-After instead of unbounded goroutines;
//   - graceful shutdown that stops accepting, lets in-flight handlers
//     finish (http.Server.Shutdown) and then answers 503 to anything
//     that still reaches a gated endpoint.
//
// Every response is bit-identical to the corresponding direct library
// call: /v1/decode calls the stream decoder on the request's own
// goroutine, and cached sessions are only used through the
// Run/RunParallel paths, which derive all randomness from (seed, packet
// index) and never mutate session state.
package server

import (
	"context"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/waveform"
)

// Defaults for Config zero values.
const (
	DefaultAddr         = ":8080"
	DefaultMaxInflight  = 64
	DefaultPoolSize     = 32
	DefaultMaxBodyBytes = 8 << 20
	DefaultMaxPackets   = 2000

	// DefaultRequestTimeout bounds how long /v1/simulate may compute
	// before the handler answers 504.
	DefaultRequestTimeout = 30 * time.Second

	// shutdownGrace bounds how long ListenAndServe waits for in-flight
	// requests once its context is cancelled.
	shutdownGrace = 10 * time.Second
)

// Config tunes the service; zero values select the defaults above.
type Config struct {
	// Addr is the listen address for ListenAndServe.
	Addr string
	// Workers bounds the worker pool used for simulate and experiment
	// sweeps (0 = all cores). Results never depend on it.
	Workers int
	// MaxInflight is the per-endpoint concurrency bound; a request
	// arriving with the gate full is rejected with 429 + Retry-After.
	MaxInflight int
	// PoolSize is the session LRU capacity (distinct link configs kept
	// constructed).
	PoolSize int
	// MaxBodyBytes caps request bodies; oversize requests get 413.
	MaxBodyBytes int64
	// MaxPackets caps the per-request packet count of /v1/simulate.
	MaxPackets int
	// RequestTimeout is the per-request compute deadline on /v1/simulate:
	// a run still working when it expires is answered 504 Gateway
	// Timeout. /v1/decode decodes inline in microseconds and has no
	// deadline. 0 selects DefaultRequestTimeout; negative disables it.
	RequestTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = DefaultAddr
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = DefaultMaxInflight
	}
	if c.PoolSize <= 0 {
		c.PoolSize = DefaultPoolSize
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.MaxPackets <= 0 {
		c.MaxPackets = DefaultMaxPackets
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	return c
}

// Server is the assembled service: handlers, session pool, gates and
// metrics. Create with New, serve via Handler or ListenAndServe, and
// Close when done.
type Server struct {
	cfg  Config
	mux  *http.ServeMux
	pool *sessionPool
	// waveforms is the process-wide TX waveform cache: every simulate
	// session the pool builds shares it, so repeated requests with the
	// same seed replay synthesised excitations even across distinct link
	// configurations (and across pool evictions).
	waveforms *waveform.Cache
	endpoints *obs.EndpointSet
	gates     map[string]*runner.Gate
	fec       obs.FECCounters
	modes     obs.ModeCounters
	start     time.Time
	// closed is set by Close; every gated endpoint then answers 503.
	closed atomic.Bool

	// testSimHook, when set by a test, runs inside the simulate worker
	// goroutine before the session run — the injection point for a slow
	// session when exercising the request deadline.
	testSimHook func()
}

// New builds a server from the config (zero values take defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		pool:      newSessionPool(cfg.PoolSize),
		waveforms: waveform.New(0),
		endpoints: obs.NewEndpointSet(),
		gates:     map[string]*runner.Gate{},
		start:     time.Now(),
	}
	s.routes()
	return s
}

// routes wires every endpoint through the instrumentation middleware.
// The v1 endpoints are gated; health and metrics always answer.
func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/encode", s.instrument("encode", true, s.handleEncode))
	s.mux.HandleFunc("POST /v1/decode", s.instrument("decode", true, s.handleDecode))
	s.mux.HandleFunc("POST /v1/simulate", s.instrument("simulate", true, s.handleSimulate))
	s.mux.HandleFunc("GET /v1/experiments/{name}", s.instrument("experiments", true, s.handleExperiment))
	s.mux.HandleFunc("GET /v1/experiments", s.instrument("experiments-list", false, s.handleExperimentList))
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", false, s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", false, s.handleMetrics))
}

// Handler returns the root handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the server taking work: every later request to a gated
// /v1 endpoint answers 503, while requests already inside a handler run
// to completion. Health and metrics keep answering. ListenAndServe calls
// it once in-flight HTTP handlers have finished.
func (s *Server) Close() { s.closed.Store(true) }

// ListenAndServe serves until ctx is cancelled, then shuts down
// gracefully: the listener closes, in-flight handlers get shutdownGrace
// to finish, and then the server is closed. Returns nil on a clean
// shutdown.
func (s *Server) ListenAndServe(ctx context.Context) error {
	httpSrv := &http.Server{Addr: s.cfg.Addr, Handler: s.mux}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errCh:
		s.Close()
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	err := httpSrv.Shutdown(shutdownCtx)
	s.Close()
	<-errCh // ListenAndServe returns ErrServerClosed after Shutdown
	return err
}

// requestCtx derives the compute-deadline context for /v1/simulate
// (RequestTimeout <= 0 disables the deadline).
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
}
