package server

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	freerider "repro"

	"repro/internal/fec"
	"repro/internal/obs"
)

// fecMetrics pulls just the FEC block out of /metrics.
func fecMetrics(t *testing.T, url string) obs.FECStats {
	t.Helper()
	var m struct {
		FEC obs.FECStats `json:"fec"`
	}
	if resp := getJSON(t, url+"/metrics", &m); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	return m.FEC
}

// TestCodedEncodeDecodeRoundTrip RS-encodes a payload through /v1/encode,
// corrupts one coded bit on the wire, and checks /v1/decode corrects it
// back to the original payload — with the correction visible in both the
// response and /metrics.
func TestCodedEncodeDecodeRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const window = 4
	code := &fec.Config{N: 15, K: 9}
	ref := testStream(freerider.WiFi, 240, 11) // 60 windows -> 7 symbols: 3 data + 4 parity
	payload := []byte{1, 0, 1, 1, 0, 0, 1, 0}
	// The endpoint zero-pads the payload to the layout's 24 data bits; the
	// decode side hands the padded payload back.
	padded := make([]byte, 24)
	copy(padded, payload)

	resp, body := postJSON(t, ts.URL+"/v1/encode", encodeRequest{
		Radio: "wifi", Ref: streamString(ref), TagBits: streamString(payload),
		Window: window, Coding: code,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coded encode: %d %s", resp.StatusCode, body)
	}
	var enc encodeResponse
	if err := json.Unmarshal(body, &enc); err != nil {
		t.Fatal(err)
	}
	if enc.DataBits != len(padded) {
		t.Fatalf("data_bits = %d, want %d", enc.DataBits, len(padded))
	}
	if enc.CodedBits != 56 || enc.TagBitsUsed != 56 {
		t.Fatalf("coded_bits=%d tag_bits_used=%d, want 56/56", enc.CodedBits, enc.TagBitsUsed)
	}

	// Flip every element of one tag-bit window: exactly one coded bit (one
	// RS symbol) arrives corrupted.
	rx, err := parseStream(freerider.WiFi, "rx", enc.RX)
	if err != nil {
		t.Fatal(err)
	}
	for i := 2 * window; i < 3*window; i++ {
		rx[i] ^= 1
	}

	resp, body = postJSON(t, ts.URL+"/v1/decode", decodeRequest{
		Radio: "wifi", Ref: streamString(ref), RX: streamString(rx),
		Window: window, Coding: code,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coded decode: %d %s", resp.StatusCode, body)
	}
	var dec decodeResponse
	if err := json.Unmarshal(body, &dec); err != nil {
		t.Fatal(err)
	}
	if dec.Coded == nil {
		t.Fatalf("coded decode response missing coded block: %s", body)
	}
	if !dec.Coded.OK || dec.Coded.CorrectedSymbols < 1 {
		t.Fatalf("coded = %+v, want ok with >=1 correction", dec.Coded)
	}
	if dec.Coded.DataBits != streamString(padded) {
		t.Fatalf("payload lost: got %s want %s", dec.Coded.DataBits, streamString(padded))
	}

	st := fecMetrics(t, ts.URL)
	if st.ChunksEncoded < 1 || st.ChunksDecoded < 1 || st.SymbolsCorrected < 1 {
		t.Fatalf("fec metrics = %+v, want encode/decode/correction counted", st)
	}
	if st.DecodeFailures != 0 {
		t.Fatalf("fec metrics report %d failures on a correctable stream", st.DecodeFailures)
	}
}

// TestCodedRequestValidation covers the coding-specific 400s.
func TestCodedRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	ref := testStream(freerider.WiFi, 240, 11)
	long := testStream(freerider.WiFi, 64, 3)

	cases := []struct {
		name string
		url  string
		body any
	}{
		{"encode zero window", "/v1/encode", encodeRequest{
			Radio: "wifi", Ref: streamString(ref), TagBits: "1",
			Window: 0, Coding: &fec.Config{N: 15, K: 9}}},
		{"encode oversize payload", "/v1/encode", encodeRequest{
			Radio: "wifi", Ref: streamString(ref), TagBits: streamString(long),
			Window: 4, Coding: &fec.Config{N: 15, K: 9}}},
		{"encode invalid code", "/v1/encode", encodeRequest{
			Radio: "wifi", Ref: streamString(ref), TagBits: "1",
			Window: 4, Coding: &fec.Config{N: 10, K: 10}}},
		{"decode invalid code", "/v1/decode", decodeRequest{
			Radio: "wifi", Ref: streamString(ref), RX: streamString(ref),
			Window: 4, Coding: &fec.Config{N: 10, K: 10}}},
		{"simulate invalid code", "/v1/simulate", simulateRequest{
			Radio: "wifi", Distance: 8, Packets: 2, Seed: 1,
			Coding: &fec.Config{N: 10, K: 10}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+tc.url, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s = %d %s, want 400", tc.name, resp.StatusCode, body)
			}
		})
	}
}

// TestSimulateCoded runs the coded link end to end over HTTP and checks
// the coded aggregates and pool keying: the coded and uncoded variants of
// the same link must be distinct sessions.
func TestSimulateCoded(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := simulateRequest{Radio: "wifi", Distance: 8, Packets: 30, Seed: 3}

	resp, body := postJSON(t, ts.URL+"/v1/simulate", base)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("uncoded simulate: %d %s", resp.StatusCode, body)
	}
	var plain simulateResponse
	if err := json.Unmarshal(body, &plain); err != nil {
		t.Fatal(err)
	}

	coded := base
	coded.Coding = &fec.Config{N: 15, K: 9}
	resp, body = postJSON(t, ts.URL+"/v1/simulate", coded)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coded simulate: %d %s", resp.StatusCode, body)
	}
	var got simulateResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.ConfigKey == plain.ConfigKey {
		t.Fatalf("coded and uncoded requests share config key %s", got.ConfigKey)
	}
	if got.CacheHit {
		t.Fatalf("coded first request reported a pool hit")
	}
	if got.Result.DataBitsDecoded == 0 {
		t.Fatalf("coded simulate decoded no payload bits: %+v", got.Result)
	}
	if got.CodedBER > got.BER {
		t.Fatalf("coded BER %g worse than raw %g on a clean link", got.CodedBER, got.BER)
	}

	st := fecMetrics(t, ts.URL)
	if st.ChunksDecoded == 0 {
		t.Fatalf("simulate did not feed the fec decode counters: %+v", st)
	}
}

// TestSimulateRequestTimeout pins the /v1/simulate deadline via the
// injected slow session hook.
func TestSimulateRequestTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{RequestTimeout: 25 * time.Millisecond})
	release := make(chan struct{})
	s.testSimHook = func() { <-release }
	defer close(release)

	resp, body := postJSON(t, ts.URL+"/v1/simulate", simulateRequest{
		Radio: "wifi", Distance: 8, Packets: 2, Seed: 1,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("slow simulate = %d %s, want 504", resp.StatusCode, body)
	}
}

// TestRequestTimeoutDisabled checks a negative RequestTimeout switches the
// deadline off: a briefly-held simulate run still completes normally.
func TestRequestTimeoutDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{RequestTimeout: -1})
	s.testSimHook = func() { time.Sleep(40 * time.Millisecond) }

	resp, body := postJSON(t, ts.URL+"/v1/simulate", simulateRequest{
		Radio: "wifi", Distance: 8, Packets: 2, Seed: 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate with disabled deadline = %d %s, want 200", resp.StatusCode, body)
	}
}

// TestRequestTimeoutDefault pins the zero-value default.
func TestRequestTimeoutDefault(t *testing.T) {
	if got := (Config{}).withDefaults().RequestTimeout; got != DefaultRequestTimeout {
		t.Fatalf("default RequestTimeout = %v, want %v", got, DefaultRequestTimeout)
	}
}
