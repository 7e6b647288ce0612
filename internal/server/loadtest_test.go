package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	freerider "repro"
)

// decodeCase is one pre-built decode request with its serially-computed
// expected answer.
type decodeCase struct {
	req  decodeRequest
	want string
}

// buildDecodeCases makes mixed-radio decode workloads: encoded streams
// with deterministic corruption sprinkled in, expected answers computed
// by direct serial library calls.
func buildDecodeCases(t testing.TB, n int) []decodeCase {
	t.Helper()
	radios := []freerider.Radio{freerider.WiFi, freerider.ZigBee, freerider.Bluetooth}
	cases := make([]decodeCase, n)
	for i := range cases {
		radio := radios[i%len(radios)]
		window := 4 + 2*(i%3)
		ref := testStream(radio, 48+8*(i%5), int64(100+i))
		tagBits := testStream(freerider.WiFi, len(ref)/window, int64(200+i))
		rx, _, err := freerider.EncodeStream(radio, ref, tagBits, window)
		if err != nil {
			t.Fatal(err)
		}
		// Corrupt a few elements so mismatch fractions vary per case.
		for j := 3; j < len(rx); j += 11 {
			if radio == freerider.ZigBee {
				rx[j] = (rx[j] + 5) % 16
			} else {
				rx[j] ^= 1
			}
		}
		ws, _, err := freerider.DecodeStream(radio, ref, rx, window)
		if err != nil {
			t.Fatal(err)
		}
		cases[i] = decodeCase{
			req: decodeRequest{
				Radio:  freerider.RadioKey(radio),
				Ref:    formatStream(ref),
				RX:     formatStream(rx),
				Window: window,
			},
			want: formatStream(freerider.DecisionBits(ws)),
		}
	}
	return cases
}

// TestDecodeConcurrentMixedRadios is the decode-path race check: 64 goroutines hammer /v1/decode over real HTTP with mixed-radio
// configs, and every response must be bit-identical to the serial
// baseline. Run under -race by `make race` and `make loadtest-quick`.
func TestDecodeConcurrentMixedRadios(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInflight: 64})
	cases := buildDecodeCases(t, 16)

	client := ts.Client()
	client.Transport.(*http.Transport).MaxIdleConnsPerHost = 64

	const goroutines = 64
	const perG = 4
	var failures atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				c := cases[(g*perG+k)%len(cases)]
				raw, _ := json.Marshal(c.req)
				resp, err := client.Post(ts.URL+"/v1/decode", "application/json", bytes.NewReader(raw))
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					failures.Add(1)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					failures.Add(1)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("goroutine %d: status %d: %s", g, resp.StatusCode, body)
					failures.Add(1)
					return
				}
				var dec decodeResponse
				if err := json.Unmarshal(body, &dec); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					failures.Add(1)
					return
				}
				if dec.TagBits != c.want {
					t.Errorf("goroutine %d case %d: tag bits %s, want %s (concurrent decode diverged from serial)",
						g, k, dec.TagBits, c.want)
					failures.Add(1)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d of %d concurrent decode streams diverged or failed", failures.Load(), goroutines)
	}
}

// TestSimulateConcurrentSharedSession hammers one cached session from
// many goroutines: the pool hands the same *core.Session to all of them,
// so this is the -race proof that pooled sessions are safe to share, and
// every response must equal the serial baseline.
func TestSimulateConcurrentSharedSession(t *testing.T) {
	if testing.Short() {
		t.Skip("simulate load test skipped in -short")
	}
	_, ts := newTestServer(t, Config{MaxInflight: 64})

	req := simulateRequest{Radio: "zigbee", Distance: 3, Packets: 2, Seed: 5}
	cfg := freerider.DefaultConfig(freerider.ZigBee, 3)
	cfg.Seed = 5
	sess, err := freerider.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sess.Run(2)
	if err != nil {
		t.Fatal(err)
	}

	client := ts.Client()
	client.Transport.(*http.Transport).MaxIdleConnsPerHost = 16
	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			raw, _ := json.Marshal(req)
			resp, err := client.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("goroutine %d: status %d: %s", g, resp.StatusCode, body)
				return
			}
			var got simulateResponse
			if err := json.Unmarshal(body, &got); err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			if got.Result != want {
				t.Errorf("goroutine %d: shared session diverged: %+v != %+v", g, got.Result, want)
			}
		}(g)
	}
	wg.Wait()
}
