// Command freerider-serve exposes the FreeRider reproduction as an
// HTTP/JSON service: stream-level codeword translation (/v1/encode,
// /v1/decode), end-to-end link simulation (/v1/simulate), the experiment
// sweeps (/v1/experiments/{name}), plus /healthz and /metrics.
//
// Usage:
//
//	freerider-serve [-addr :8080] [-workers N] [-max-inflight N]
//	                [-max-body BYTES] [-admin-addr 127.0.0.1:6060]
//
// Each request does its work on its own request goroutine: decode
// decodes the stream, simulate builds a session and runs it. Responses
// are bit-identical to direct library calls. Each v1 endpoint admits at
// most -max-inflight concurrent requests and sheds the excess with
// 429 + Retry-After. SIGINT/SIGTERM trigger a graceful shutdown that
// finishes in-flight requests before exiting.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

// startAdmin brings up the optional admin listener serving /debug/pprof.
// Profiling endpoints leak heap contents and goroutine stacks, so the
// listener refuses to come up on anything but a loopback address: the bind
// must name a loopback IP (or localhost) explicitly — ":6060"-style
// all-interface binds are rejected before the socket opens.
func startAdmin(addr string) {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		log.Fatalf("admin-addr %q: %v", addr, err)
	}
	if host != "localhost" {
		ip := net.ParseIP(host)
		if ip == nil || !ip.IsLoopback() {
			log.Fatalf("admin-addr %q is not loopback; pprof is only served on 127.0.0.1/::1/localhost", addr)
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("admin listener: %v", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	log.Printf("admin pprof listening on %s (loopback only)", ln.Addr())
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			log.Printf("admin listener stopped: %v", err)
		}
	}()
}

func main() {
	addr := flag.String("addr", server.DefaultAddr, "listen address")
	workers := flag.Int("workers", 0, "worker pool for simulate and experiment sweeps (0 = all cores); results do not depend on it")
	maxInflight := flag.Int("max-inflight", server.DefaultMaxInflight, "per-endpoint concurrent requests before 429 backpressure")
	maxBody := flag.Int64("max-body", server.DefaultMaxBodyBytes, "request body size cap in bytes (413 beyond)")
	adminAddr := flag.String("admin-addr", "", "loopback-only admin listener serving /debug/pprof (disabled when empty)")
	flag.Parse()

	if *adminAddr != "" {
		startAdmin(*adminAddr)
	}

	srv := server.New(server.Config{
		Addr:         *addr,
		Workers:      *workers,
		MaxInflight:  *maxInflight,
		MaxBodyBytes: *maxBody,
	})

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	log.Printf("freerider-serve listening on %s (max-inflight %d)", *addr, *maxInflight)
	start := time.Now()
	if err := srv.ListenAndServe(ctx); err != nil {
		log.Fatal(err)
	}
	log.Printf("freerider-serve drained and stopped after %s", time.Since(start).Round(time.Millisecond))
}
