package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// The body fuzzers post arbitrary bytes to one /v1 endpoint through the
// server's own handler and demand an answer, never a crash: either 200
// with a JSON object, or a 4xx/5xx JSON error naming what was wrong. A
// 500 is a failure too: it means the server accepted a request it then
// could not serve. A panic anywhere on the request path, the simulate
// workers included, fails the fuzzer outright.

// fuzzServer builds one server per fuzz target, sized so that a valid
// body stays cheap: two packets per simulate, 64 KiB bodies, one worker.
func fuzzServer(f *testing.F) *Server {
	s := New(Config{
		Workers:        1,
		MaxPackets:     2,
		MaxBodyBytes:   64 << 10,
		RequestTimeout: time.Minute,
	})
	f.Cleanup(s.Close)
	return s
}

// postFuzz sends body to path and checks the response contract.
func postFuzz(t *testing.T, s *Server, path string, body []byte) {
	serveFuzz(t, s, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)), string(body))
}

// serveFuzz serves req through the handler and checks the response
// contract; input is the fuzzed part of the request, for the report.
func serveFuzz(t *testing.T, s *Server, req *http.Request, input string) {
	path := req.URL.Path
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s %q: status %d with Content-Type %q", path, input, rec.Code, ct)
	}
	switch {
	case rec.Code == http.StatusOK:
		var obj map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &obj); err != nil {
			t.Fatalf("%s %q: 200 with a body that is not a JSON object: %v", path, input, err)
		}
		return
	case rec.Code == http.StatusInternalServerError:
		t.Fatalf("%s %q: 500: %s", path, input, rec.Body.Bytes())
	case rec.Code < 400 || rec.Code > 599:
		t.Fatalf("%s %q: unexpected status %d", path, input, rec.Code)
	}
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Fatalf("%s %q: status %d without a JSON error: %s", path, input, rec.Code, rec.Body.Bytes())
	}
}

// Bodies every fuzzer starts from: transport-level garbage.
var fuzzTransportSeeds = []string{
	``, `{`, `null`, `[]`, `"x"`, `{}`, `{"radio":"wifi"}`, `{"radio":7}`,
	`{"radio":"wifi"}{"radio":"zigbee"}`,
}

func FuzzEncodeBody(f *testing.F) {
	for _, b := range fuzzTransportSeeds {
		f.Add([]byte(b))
	}
	for _, b := range []string{
		`{"radio":"wifi","ref":"0110100101101001","tag_bits":"1011","window":4}`,
		`{"radio":"zigbee","ref":"0123456789abcdef","tag_bits":"10","window":8}`,
		`{"radio":"bluetooth","ref":"01101001","tag_bits":"1","window":8}`,
		`{"radio":"wifi","ref":"0110","tag_bits":"1","window":0}`,
		`{"radio":"wifi","ref":"0110","tag_bits":"1","window":-4}`,
		`{"radio":"wifi","ref":"0110","tag_bits":"1","window":9223372036854775807}`,
		`{"radio":"wifi","ref":"0110","tag_bits":"12","window":2}`,
		`{"radio":"wifi","ref":"01101001011010010110100101101001","tag_bits":"1","window":2,"coding":{"n":15,"k":9}}`,
		`{"radio":"wifi","ref":"0110","tag_bits":"1","window":1,"coding":{"n":0,"k":0,"interleave":-1}}`,
	} {
		f.Add([]byte(b))
	}
	s := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) { postFuzz(t, s, "/v1/encode", body) })
}

func FuzzDecodeBody(f *testing.F) {
	for _, b := range fuzzTransportSeeds {
		f.Add([]byte(b))
	}
	for _, b := range []string{
		`{"radio":"wifi","ref":"0110100101101001","rx":"0110100101101001","window":4}`,
		`{"radio":"wifi","ref":"0110100101101001","rx":"01101","window":4}`,
		`{"radio":"zigbee","ref":"0123456789abcdef","rx":"fedcba9876543210","window":8}`,
		`{"radio":"bluetooth","ref":"","rx":"0110","window":2,"mode":"single"}`,
		`{"radio":"wifi","ref":"01","rx":"0110","window":2,"mode":"single"}`,
		`{"radio":"wifi","ref":"0110","rx":"0110","window":0}`,
		`{"radio":"wifi","ref":"0110","rx":"0110","window":-9223372036854775808}`,
		`{"radio":"wifi","ref":"0110","rx":"0110","window":1,"mode":"quad"}`,
		`{"radio":"wifi","ref":"01101001011010010110100101101001","rx":"01101001011010010110100101101001","window":2,"coding":{"n":15,"k":9}}`,
		`{"radio":"wifi","ref":"","rx":"0110100101101001","window":1,"mode":"single","coding":{"n":7,"k":3}}`,
	} {
		f.Add([]byte(b))
	}
	s := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) { postFuzz(t, s, "/v1/decode", body) })
}

func FuzzSimulateBody(f *testing.F) {
	for _, b := range fuzzTransportSeeds {
		f.Add([]byte(b))
	}
	for _, b := range []string{
		`{"radio":"zigbee","distance":4,"packets":1,"seed":3}`,
		`{"radio":"bluetooth","distance":2,"packets":2,"receiver":"single"}`,
		`{"radio":"wifi","distance":10,"packets":1,"payload_size":24,"rate_mbps":12,"quaternary":true}`,
		`{"radio":"wifi","distance":1e308,"tx_distance":1e-300,"packets":1,"nlos":true}`,
		`{"radio":"zigbee","distance":5,"packets":1,"faults":"chaos@0.7"}`,
		`{"radio":"zigbee","distance":5,"packets":1,"coding":{"n":15,"k":9,"interleave":2}}`,
		`{"radio":"wifi","distance":5,"packets":1,"redundancy":9223372036854775807}`,
		`{"radio":"wifi","distance":5,"packets":3}`,
		`{"radio":"wifi","distance":5,"packets":1,"payload_size":5000}`,
		`{"radio":"zigbee","distance":5,"packets":1,"faults":"burst:p01=2"}`,
		`{"radio":"zigbee","distance":5,"packets":1,"receiver":"triple"}`,
	} {
		f.Add([]byte(b))
	}
	s := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) { postFuzz(t, s, "/v1/simulate", body) })
}

// FuzzExperimentQuery sends arbitrary raw query strings to
// GET /v1/experiments/power (a few milliseconds at either effort), so the
// seed, faults and full parameters face repeated, badly escaped, negative
// and out-of-range values under the same contract as the body fuzzers.
func FuzzExperimentQuery(f *testing.F) {
	for _, q := range []string{
		``, `full=`, `full=1`, `full=false`, `full=yes`, `full=1&full=0`,
		`seed=7`, `seed=-1`, `seed=0`, `seed=9223372036854775807`,
		`seed=9223372036854775808`, `seed=-9223372036854775809`, `seed=1e3`,
		`seed=1&seed=x`, `seed=%zz`, `seed=%`, `seed=%2d5`,
		`faults=none`, `faults=chaos`, `faults=chaos@-1`, `faults=chaos@1e308`,
		`faults=burst:p01=2`, `faults=%ff%fe`, `faults=bursty-wifi&faults=`,
		`full=t&seed=3&faults=impulsive`, `;;&&==`, `full=%00`,
	} {
		f.Add(q)
	}
	s := fuzzServer(f)
	f.Fuzz(func(t *testing.T, query string) {
		req := httptest.NewRequest(http.MethodGet, "/v1/experiments/power", nil)
		req.URL.RawQuery = query
		serveFuzz(t, s, req, query)
	})
}
