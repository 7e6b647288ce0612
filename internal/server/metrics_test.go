package server

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/waveform"
)

// TestLatencyHistogram pins the endpoint histogram that /metrics and the
// benchmark's server latency figures read: bucket placement on a bound,
// interpolated quantiles, overflow extrapolation and the empty case.
func TestLatencyHistogram(t *testing.T) {
	var empty endpoint
	if got := empty.snapshot(); got != (endpointSnapshot{}) {
		t.Fatalf("empty histogram snapshot = %+v, want zeros", got)
	}

	// An observation exactly on a bound lands in that bound's bucket.
	var e endpoint
	e.observe(250 * time.Microsecond)
	if e.counts[1].Load() != 1 {
		t.Fatalf("250us landed outside the (100us, 250us] bucket: %v", counts(&e))
	}

	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %.12g ms, want %.12g", name, got, want)
		}
	}
	// Eight requests in (1ms, 2.5ms] and two in (10ms, 25ms]: each
	// quantile interpolates linearly inside the bucket holding its rank.
	e = endpoint{}
	for i := 0; i < 8; i++ {
		e.observe(2 * time.Millisecond)
	}
	e.observe(20 * time.Millisecond)
	e.observe(20 * time.Millisecond)
	s := e.snapshot()
	if s.Requests != 10 || s.Latency.Count != 10 {
		t.Fatalf("requests %d, count %d, want 10", s.Requests, s.Latency.Count)
	}
	near("mean", s.Latency.MeanMs, 5.6)
	near("p50", s.Latency.P50Ms, 1+1.5*5.0/8) // rank 5 of the 8 in (1, 2.5]
	near("p90", s.Latency.P90Ms, 10+15*0.5)   // rank 9: first of the 2 in (10, 25]
	near("p99", s.Latency.P99Ms, 10+15*0.95)  // rank 9.9

	// The overflow bucket has no upper bound; its quantiles interpolate
	// over the octave above the last bound, 10 s to 20 s.
	e = endpoint{}
	e.observe(30 * time.Second)
	s = e.snapshot()
	near("overflow mean", s.Latency.MeanMs, 30000)
	near("overflow p50", s.Latency.P50Ms, 15000)
	near("overflow p99", s.Latency.P99Ms, 19900)
}

func counts(e *endpoint) []int64 {
	out := make([]int64, len(e.counts))
	for i := range e.counts {
		out[i] = e.counts[i].Load()
	}
	return out
}

// TestMetricsKeySet pins the exact JSON key sets of /metrics, so moving a
// counter cannot drop or rename a field a dashboard or the benchmark
// reads. The traffic makes every omitempty counter nonzero: a simulate
// fills the waveform cache, contended lookups move its lock wait, a bad
// decode counts an error, a decode after Close a rejection, and the
// scrape itself is in flight on the metrics endpoint.
func TestMetricsKeySet(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxPackets: 2})
	if resp, body := postJSON(t, ts.URL+"/v1/simulate",
		simulateRequest{Radio: "zigbee", Distance: 2, Packets: 1, Seed: 1}); resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d %s", resp.StatusCode, body)
	}
	good := decodeRequest{Radio: "wifi", Ref: "01010101", RX: "01010101", Window: 4}
	if resp, body := postJSON(t, ts.URL+"/v1/decode", good); resp.StatusCode != http.StatusOK {
		t.Fatalf("decode: %d %s", resp.StatusCode, body)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/decode", decodeRequest{Radio: "nope"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad decode: %d, want 400", resp.StatusCode)
	}
	contendCache(t, s.waveforms)
	s.Close()
	if resp, _ := postJSON(t, ts.URL+"/v1/decode", good); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("decode after Close: %d, want 503", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("metrics body: %v\n%s", err, raw)
	}
	object := func(v any, path string) map[string]any {
		t.Helper()
		m, ok := v.(map[string]any)
		if !ok {
			t.Fatalf("%s is %T, want an object", path, v)
		}
		return m
	}
	pin := func(path string, m map[string]any, want ...string) {
		t.Helper()
		got := make([]string, 0, len(m))
		for k := range m {
			got = append(got, k)
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s keys = %v, want %v", path, got, want)
		}
	}
	pin("/metrics", body, "uptime_seconds", "endpoints", "waveform_cache", "fec", "receiver_modes")
	pin("waveform_cache", object(body["waveform_cache"], "waveform_cache"),
		"entries", "bytes", "capacity_bytes", "hits", "misses", "evictions", "rejected",
		"duplicates", "coalesced", "lock_wait_ns", "hit_rate")
	pin("fec", object(body["fec"], "fec"),
		"chunks_encoded", "chunks_decoded", "decode_failures", "symbols_corrected")
	pin("receiver_modes", object(body["receiver_modes"], "receiver_modes"),
		"dual_decodes", "single_decodes", "dual_simulates", "single_simulates", "dropped_elements")
	endpoints := object(body["endpoints"], "endpoints")
	pin("endpoints", endpoints,
		"encode", "decode", "simulate", "experiments", "experiments-list", "healthz", "metrics")
	dec := object(endpoints["decode"], "endpoints.decode")
	pin("endpoints.decode", dec, "requests", "errors", "rejected", "latency")
	pin("endpoints.decode.latency", object(dec["latency"], "endpoints.decode.latency"),
		"count", "mean_ms", "p50_ms", "p90_ms", "p99_ms")
	pin("endpoints.metrics", object(endpoints["metrics"], "endpoints.metrics"),
		"requests", "in_flight", "latency")
}

// contendCache runs concurrent lookups on c until one of them has waited
// on the cache lock. It runs them on at least two threads: on one, a
// lookup is never descheduled inside the critical section.
func contendCache(t *testing.T, c *waveform.Cache) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	deadline := time.Now().Add(20 * time.Second)
	k := waveform.NewKey().Byte(1).Sum()
	for c.Stats().LockWaitNs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no lookup waited on the cache lock")
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20000; i++ {
					c.Get(k)
				}
			}()
		}
		wg.Wait()
	}
}
