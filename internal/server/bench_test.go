package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkDecodeEndpoint measures the full service decode path —
// middleware, JSON, stream decode, response — driven 32-way parallel;
// `make bench-serve` appends ns/op and allocs/op to BENCH_SERVE.json.
func BenchmarkDecodeEndpoint(b *testing.B) {
	s := New(Config{MaxInflight: 1 << 20})
	defer s.Close()
	cases := buildDecodeCases(b, 8)
	bodies := make([][]byte, len(cases))
	for i, c := range cases {
		raw, err := json.Marshal(c.req)
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = raw
	}

	b.SetParallelism(32)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			req := httptest.NewRequest("POST", "/v1/decode", bytes.NewReader(bodies[i%len(bodies)]))
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
			}
			i++
		}
	})
}

// BenchmarkSimulateEndpoint measures the simulate path over a small
// rotating set of configs, reporting the session pool's hit rate — the
// number BENCH_SERVE.json tracks across PRs.
func BenchmarkSimulateEndpoint(b *testing.B) {
	s := New(Config{MaxInflight: 1 << 20})
	defer s.Close()
	reqs := []simulateRequest{
		{Radio: "zigbee", Distance: 3, Packets: 1, Seed: 5},
		{Radio: "zigbee", Distance: 6, Packets: 1, Seed: 5},
		{Radio: "bluetooth", Distance: 3, Packets: 1, Seed: 5},
	}
	bodies := make([][]byte, len(reqs))
	for i, r := range reqs {
		raw, err := json.Marshal(r)
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = raw
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/simulate", bytes.NewReader(bodies[i%len(bodies)]))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	b.StopTimer()
	b.ReportMetric(s.pool.stats().HitRate, "hit-rate")
}
