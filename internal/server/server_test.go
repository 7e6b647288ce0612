package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	freerider "repro"

	"repro/internal/experiments"
)

// newTestServer builds a server plus a live httptest listener; both are
// torn down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close() // waits for in-flight requests, mirroring http.Server.Shutdown
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("unmarshal %s: %v\n%s", url, err, data)
		}
	}
	return resp
}

// testStream builds a deterministic reference stream for a radio.
func testStream(r freerider.Radio, n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	limit := 2
	if r == freerider.ZigBee {
		limit = 16
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rng.Intn(limit))
	}
	return out
}

func streamString(vals []byte) string { return formatStream(vals) }

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var got map[string]any
	resp := getJSON(t, ts.URL+"/healthz", &got)
	if resp.StatusCode != http.StatusOK || got["status"] != "ok" {
		t.Fatalf("healthz = %d %v", resp.StatusCode, got)
	}
}

// TestEncodeDecodeRoundTrip drives /v1/encode into /v1/decode for every
// radio and checks both against the direct library calls bit for bit.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, radio := range []freerider.Radio{freerider.WiFi, freerider.ZigBee, freerider.Bluetooth} {
		name := freerider.RadioKey(radio)
		t.Run(name, func(t *testing.T) {
			const window = 4
			ref := testStream(radio, 64, 7)
			tagBits := []byte{1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 1, 1, 0, 0}

			wantRX, used, err := freerider.EncodeStream(radio, ref, tagBits, window)
			if err != nil {
				t.Fatal(err)
			}

			resp, body := postJSON(t, ts.URL+"/v1/encode", encodeRequest{
				Radio: name, Ref: streamString(ref), TagBits: streamString(tagBits), Window: window,
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("encode: %d %s", resp.StatusCode, body)
			}
			var enc encodeResponse
			if err := json.Unmarshal(body, &enc); err != nil {
				t.Fatal(err)
			}
			if enc.RX != streamString(wantRX) {
				t.Fatalf("encode rx diverges from library:\n got %s\nwant %s", enc.RX, streamString(wantRX))
			}
			if enc.TagBitsUsed != used {
				t.Fatalf("tag_bits_used = %d, want %d", enc.TagBitsUsed, used)
			}

			resp, body = postJSON(t, ts.URL+"/v1/decode", decodeRequest{
				Radio: name, Ref: streamString(ref), RX: enc.RX, Window: window,
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("decode: %d %s", resp.StatusCode, body)
			}
			var dec decodeResponse
			if err := json.Unmarshal(body, &dec); err != nil {
				t.Fatal(err)
			}
			want := streamString(tagBits[:used])
			if dec.TagBits != want {
				t.Fatalf("round trip lost tag bits: got %s want %s", dec.TagBits, want)
			}

			// And the decode response must match the direct library call.
			ws, _, err := freerider.DecodeStream(radio, ref, wantRX, window)
			if err != nil {
				t.Fatal(err)
			}
			if dec.TagBits != streamString(freerider.DecisionBits(ws)) {
				t.Fatalf("decode endpoint diverges from DecodeStream")
			}
			for i, wd := range ws {
				if dec.Mismatch[i] != wd.MismatchFraction {
					t.Fatalf("mismatch[%d] = %v, want %v", i, dec.Mismatch[i], wd.MismatchFraction)
				}
			}
		})
	}
}

func TestMalformedJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/encode", "/v1/decode", "/v1/simulate"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader("{not json"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s malformed JSON: got %d, want 400", path, resp.StatusCode)
		}
	}
}

func TestUnknownRadio(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/decode", decodeRequest{Radio: "lora", Ref: "01", RX: "01", Window: 1})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "unknown radio") {
		t.Fatalf("unknown radio: got %d %s", resp.StatusCode, body)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/simulate", simulateRequest{Radio: "lte", Distance: 5, Packets: 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("simulate unknown radio: got %d", resp.StatusCode)
	}
}

func TestInvalidStreamElement(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Hex digits are valid for ZigBee but not for WiFi bit streams.
	resp, body := postJSON(t, ts.URL+"/v1/decode", decodeRequest{Radio: "wifi", Ref: "01a1", RX: "0101", Window: 2})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid element: got %d %s", resp.StatusCode, body)
	}
}

func TestOversizeBody(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 256})
	big := decodeRequest{Radio: "wifi", Ref: strings.Repeat("01", 400), RX: strings.Repeat("01", 400), Window: 4}
	resp, body := postJSON(t, ts.URL+"/v1/decode", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: got %d %s, want 413", resp.StatusCode, body)
	}
}

// TestBackpressure fills an endpoint's gate and checks the next request
// is shed with 429 + Retry-After rather than queued.
func TestBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 2})
	gate := s.gates["decode"]
	for i := 0; i < gate.Capacity(); i++ {
		if !gate.TryEnter() {
			t.Fatalf("gate refused slot %d of %d", i, gate.Capacity())
		}
	}
	defer func() {
		for i := 0; i < gate.Capacity(); i++ {
			gate.Leave()
		}
	}()
	resp, body := postJSON(t, ts.URL+"/v1/decode", decodeRequest{Radio: "wifi", Ref: "0101", RX: "0101", Window: 2})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over capacity: got %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}
	// Other endpoints keep their own gates: healthz and simulate answer.
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz gated by decode backpressure: %d", resp.StatusCode)
	}
}

// TestSimulate checks the endpoint against a direct library run bit for
// bit, and that a repeated config is served from the session pool.
func TestSimulate(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := simulateRequest{Radio: "zigbee", Distance: 4, Packets: 2, Seed: 3}

	cfg := freerider.DefaultConfig(freerider.ZigBee, 4)
	cfg.Seed = 3
	sess, err := freerider.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sess.Run(2)
	if err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, ts.URL+"/v1/simulate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d %s", resp.StatusCode, body)
	}
	var got simulateResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.CacheHit {
		t.Error("first request reported a cache hit")
	}
	if got.Result != want {
		t.Fatalf("simulate diverges from direct Run:\n got %+v\nwant %+v", got.Result, want)
	}

	resp, body = postJSON(t, ts.URL+"/v1/simulate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate (repeat): %d %s", resp.StatusCode, body)
	}
	var again simulateResponse
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Error("repeat request missed the session pool")
	}
	if again.Result != want {
		t.Fatalf("cached session diverges from direct Run:\n got %+v\nwant %+v", again.Result, want)
	}
	if st := s.pool.stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("pool stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestSimulateValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxPackets: 10})
	cases := []simulateRequest{
		{Radio: "wifi", Distance: 0, Packets: 1},                     // bad distance
		{Radio: "wifi", Distance: 5, Packets: 0},                     // bad packets
		{Radio: "wifi", Distance: 5, Packets: 11},                    // over MaxPackets
		{Radio: "wifi", Distance: 5, Packets: 1, RateMbps: 54},       // non-BPSK/QPSK rate
		{Radio: "zigbee", Distance: 5, Packets: 1, Quaternary: true}, // quaternary off-WiFi
		{Radio: "wifi", Distance: 5, Packets: 1, Faults: "no-such-profile"},
		{Radio: "zigbee", Distance: 5, Packets: 1, PayloadSize: 200},    // over the 802.15.4 frame
		{Radio: "bluetooth", Distance: 5, Packets: 1, PayloadSize: 300}, // over the BLE PDU
		{Radio: "wifi", Distance: 5, Packets: 1, PayloadSize: 5000},     // over the 4095 B PSDU
		{Radio: "wifi", Distance: 5, Packets: 1, PayloadSize: 10},       // under the MAC header
		{Radio: "zigbee", Distance: 5, Packets: 1, PayloadSize: 3},      // under the MHR
	}
	for i, c := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/simulate", c)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: got %d %s, want 400", i, resp.StatusCode, body)
		}
	}
	// A negative optional field is rejected by name instead of silently
	// falling back to its default (0 keeps selecting the default).
	negative := map[string]simulateRequest{
		"payload_size": {Radio: "wifi", Distance: 5, Packets: 1, PayloadSize: -5},
		"redundancy":   {Radio: "wifi", Distance: 5, Packets: 1, Redundancy: -1},
		"rate_mbps":    {Radio: "wifi", Distance: 5, Packets: 1, RateMbps: -6},
		"tx_distance":  {Radio: "wifi", Distance: 5, Packets: 1, TxDistance: -0.5},
	}
	for field, c := range negative {
		resp, body := postJSON(t, ts.URL+"/v1/simulate", c)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), field) {
			t.Errorf("negative %s: got %d %s, want 400 naming the field", field, resp.StatusCode, body)
		}
	}
}

func TestExperimentEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var got experimentResponse
	resp := getJSON(t, ts.URL+"/v1/experiments/power", &got)
	if resp.StatusCode != http.StatusOK || got.Name != "power" || got.Rows == nil {
		t.Fatalf("experiments/power: %d %+v", resp.StatusCode, got)
	}
	if resp := getJSON(t, ts.URL+"/v1/experiments/no-such-figure", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown experiment: got %d, want 404", resp.StatusCode)
	}
	// An empty ?full= is quick effort; a value ParseBool rejects is a 400
	// naming the parameter, not a silent quick run.
	got = experimentResponse{}
	if resp := getJSON(t, ts.URL+"/v1/experiments/power?full=", &got); resp.StatusCode != http.StatusOK || got.Full {
		t.Fatalf("full= (empty): %d full=%v, want 200 at quick effort", resp.StatusCode, got.Full)
	}
	var e errorResponse
	resp = getJSON(t, ts.URL+"/v1/experiments/power?full=yes", &e)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "full") {
		t.Fatalf("full=yes: got %d %q, want 400 naming full", resp.StatusCode, e.Error)
	}
}

// TestExperimentListMatchesRegistry pins the /v1/experiments listing to
// experiments.Registry, entry for entry and in order.
func TestExperimentListMatchesRegistry(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var list struct {
		Experiments []struct{ Name, Title string } `json:"experiments"`
	}
	if resp := getJSON(t, ts.URL+"/v1/experiments", &list); resp.StatusCode != http.StatusOK {
		t.Fatalf("experiments list: %d", resp.StatusCode)
	}
	if len(list.Experiments) != len(experiments.Registry) {
		t.Fatalf("listing has %d entries, registry %d", len(list.Experiments), len(experiments.Registry))
	}
	for i, e := range experiments.Registry {
		if got := list.Experiments[i]; got.Name != e.Name || got.Title != e.Title {
			t.Errorf("listing[%d] = %q %q, registry %q %q", i, got.Name, got.Title, e.Name, e.Title)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/decode", decodeRequest{Radio: "wifi", Ref: "01010101", RX: "01010101", Window: 4})
	var got metricsResponse
	if resp := getJSON(t, ts.URL+"/metrics", &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	dec, ok := got.Endpoints["decode"]
	if !ok || dec.Requests != 1 {
		t.Fatalf("decode endpoint metrics = %+v", got.Endpoints)
	}
	if dec.Latency.Count != 1 || dec.Latency.MeanMs <= 0 {
		t.Fatalf("decode latency histogram = %+v", dec.Latency)
	}
}

// TestMetricsWaveformCache pins the service-level TX memoization: the
// first simulate request synthesises its excitation waveforms, a repeat of
// the same request replays them, and /metrics reports the cache's hit
// rate and bounded memory.
func TestMetricsWaveformCache(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxPackets: 8})
	req := simulateRequest{Radio: "wifi", Distance: 5, Packets: 2, Seed: 9, PayloadSize: 200}
	for i := 0; i < 2; i++ {
		if resp, body := postJSON(t, ts.URL+"/v1/simulate", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("simulate %d: %d %s", i, resp.StatusCode, body)
		}
	}
	var got metricsResponse
	if resp := getJSON(t, ts.URL+"/metrics", &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	wc := got.WaveformCache
	if wc.Misses != 2 || wc.Hits != 2 {
		t.Fatalf("waveform cache stats = %+v, want 2 misses then 2 hits", wc)
	}
	if wc.HitRate != 0.5 {
		t.Fatalf("hit rate %v, want 0.5", wc.HitRate)
	}
	if wc.Entries != 2 || wc.Bytes <= 0 || wc.Bytes > wc.CapacityBytes {
		t.Fatalf("cache accounting out of range: %+v", wc)
	}
}

// TestShutdownDrains submits decode work, closes the server, and checks
// that accepted requests completed while later /v1 requests are refused.
func TestShutdownDrains(t *testing.T) {
	s := New(Config{})
	ref := testStream(freerider.WiFi, 32, 1)
	rx, _, err := freerider.EncodeStream(freerider.WiFi, ref, []byte{1, 0, 1, 1}, 4)
	if err != nil {
		t.Fatal(err)
	}

	const n = 8
	results := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest("POST", "/v1/decode", strings.NewReader(fmt.Sprintf(
				`{"radio":"wifi","ref":"%s","rx":"%s","window":4}`, formatStream(ref), formatStream(rx))))
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			if rec.Code == http.StatusOK {
				results[i] = rec.Body.Bytes()
			}
		}(i)
	}
	wg.Wait()
	s.Close()

	want := streamString(freerider.DecisionBits(mustDecode(t, freerider.WiFi, ref, rx, 4)))
	for i, body := range results {
		if body == nil {
			t.Fatalf("request %d failed before shutdown", i)
		}
		var dec decodeResponse
		if err := json.Unmarshal(body, &dec); err != nil {
			t.Fatal(err)
		}
		if dec.TagBits != want {
			t.Fatalf("request %d: tag bits %s, want %s", i, dec.TagBits, want)
		}
	}

	// Post-close: every gated endpoint refuses new work with 503.
	for path, body := range map[string]string{
		"/v1/decode": fmt.Sprintf(`{"radio":"wifi","ref":"%s","rx":"%s","window":4}`,
			formatStream(ref), formatStream(rx)),
		"/v1/simulate": `{"radio":"zigbee","distance":4,"packets":1,"seed":3}`,
	} {
		req := httptest.NewRequest("POST", path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("post-close %s: got %d, want 503", path, rec.Code)
		}
	}
}

func mustDecode(t *testing.T, r freerider.Radio, ref, rx []byte, window int) []freerider.WindowDecision {
	t.Helper()
	ws, _, err := freerider.DecodeStream(r, ref, rx, window)
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

// TestSingleReceiverEndpoints drives both endpoints in single-receiver
// mode end to end: /v1/decode on a differential flip-feature stream
// against the direct library call, /v1/simulate against a direct
// single-mode Run (keyed apart from the dual pool entry), and the
// /metrics per-mode counters.
func TestSingleReceiverEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Flip features for tag bits 1,0,1 over windows of 4.
	feat := []byte{1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1}
	ws, err := freerider.DecodeDifferentialStream(freerider.WiFi, feat, 4)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/decode", decodeRequest{
		Radio: "wifi", RX: streamString(feat), Window: 4, Mode: "single",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single decode: %d %s", resp.StatusCode, body)
	}
	var dec decodeResponse
	if err := json.Unmarshal(body, &dec); err != nil {
		t.Fatal(err)
	}
	if dec.Mode != "single" || dec.TagBits != streamString(freerider.DecisionBits(ws)) {
		t.Fatalf("single decode = %+v, want mode single, tag bits %s",
			dec, streamString(freerider.DecisionBits(ws)))
	}

	// A reference stream contradicts single mode.
	resp, body = postJSON(t, ts.URL+"/v1/decode", decodeRequest{
		Radio: "wifi", Ref: "0101", RX: streamString(feat), Window: 4, Mode: "single",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("single decode with ref: got %d %s, want 400", resp.StatusCode, body)
	}

	// Simulate dual then single with identical knobs: the single request
	// must not hit the dual session, and must match a direct single Run.
	req := simulateRequest{Radio: "zigbee", Distance: 4, Packets: 2, Seed: 3}
	if resp, body := postJSON(t, ts.URL+"/v1/simulate", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("dual simulate: %d %s", resp.StatusCode, body)
	}
	req.Receiver = "single"
	resp, body = postJSON(t, ts.URL+"/v1/simulate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single simulate: %d %s", resp.StatusCode, body)
	}
	var sim simulateResponse
	if err := json.Unmarshal(body, &sim); err != nil {
		t.Fatal(err)
	}
	if sim.Receiver != "single" {
		t.Fatalf("receiver %q, want single", sim.Receiver)
	}
	if sim.CacheHit {
		t.Fatal("single simulate hit the dual-mode pool entry")
	}
	cfg := freerider.DefaultConfig(freerider.ZigBee, 4)
	cfg.Seed = 3
	cfg.ReceiverMode = freerider.SingleReceiver
	sess, err := freerider.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sess.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Result != want {
		t.Fatalf("single simulate diverges from direct Run:\n got %+v\nwant %+v", sim.Result, want)
	}

	var got metricsResponse
	if resp := getJSON(t, ts.URL+"/metrics", &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	m := got.ReceiverModes
	if m.SingleDecodes != 1 || m.DualDecodes != 0 || m.SingleSimulates != 1 || m.DualSimulates != 1 {
		t.Fatalf("mode counters = %+v, want 1 single decode, 1 dual + 1 single simulate", m)
	}
}
