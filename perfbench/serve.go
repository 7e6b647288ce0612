package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	freerider "repro"

	"repro/internal/core"
	"repro/internal/fec"
	"repro/internal/server"
)

// serve-mixed: closed-loop HTTP clients against the in-process service
// with its default config, most requests packet-sized /v1/decode streams,
// a minority small /v1/simulate runs.

const (
	decodeVariants = 8  // distinct bodies per decode class
	cycleLen       = 16 // a lone client's cycle: 15 decodes, 1 simulate
	freshEvery     = 8  // every 8th simulate uses a never-seen seed
	freshBodies    = 4096
	simulateSeeds  = 2 // fixed seeds per simulate config
)

// decodeClass is one kind of packet-sized decode stream.
type decodeClass struct {
	radio  freerider.Radio
	single bool
	length int // stream elements
	window int
}

var decodeClasses = []decodeClass{
	{freerider.WiFi, false, 12000, 96},
	{freerider.WiFi, true, 500, 4},
	{freerider.ZigBee, false, 212, 4},
	{freerider.ZigBee, true, 212, 4},
	{freerider.Bluetooth, false, 2064, 16},
	{freerider.Bluetooth, true, 2064, 16},
}

// simConfig is one /v1/simulate link the rotation visits.
type simConfig struct {
	Radio    string
	Receiver string
	Coded    bool
	Distance float64
	Packets  int
}

// simConfigs size each request to about the same work (a Bluetooth
// packet costs about two ZigBee or WiFi ones), so simulate latency has one
// mode rather than one per radio.
var simConfigs = []simConfig{
	{"wifi", "dual", false, 10, 4},
	{"zigbee", "dual", false, 10, 4},
	{"zigbee", "single", false, 10, 4},
	{"zigbee", "dual", true, 15, 4},
	{"bluetooth", "dual", false, 5, 2},
	{"bluetooth", "dual", true, 5, 2},
}

type decodeBody struct {
	body    []byte
	want    string // expected tag_bits
	request freerider.DecodeRequest
}

type simBody struct {
	body []byte
	cfg  simConfig
	seed int64
}

type simulateReq struct {
	Radio    string      `json:"radio"`
	Distance float64     `json:"distance"`
	Packets  int         `json:"packets"`
	Seed     int64       `json:"seed"`
	Receiver string      `json:"receiver,omitempty"`
	Coding   *fec.Config `json:"coding,omitempty"`
}

func (sb simBody) coreConfig() (core.Config, error) {
	radio, err := freerider.ParseRadio(sb.cfg.Radio)
	if err != nil {
		return core.Config{}, err
	}
	mode, err := freerider.ParseReceiverMode(sb.cfg.Receiver)
	if err != nil {
		return core.Config{}, err
	}
	cfg := freerider.DefaultConfig(radio, sb.cfg.Distance)
	cfg.Seed = sb.seed
	cfg.ReceiverMode = mode
	if sb.cfg.Coded {
		c := fec.DefaultConfig()
		cfg.Coding = &c
	}
	return cfg, nil
}

// serveInputs are the generated request bodies and their expected decode
// outputs; simulate expectations are computed after the run.
type serveInputs struct {
	decodes []decodeBody // decodeVariants per class, class-major
	fixed   []simBody    // simulateSeeds per config, seed-major
	fresh   []simBody
}

func makeServeInputs(seed int64) (*serveInputs, error) {
	in := &serveInputs{}
	rng := rand.New(rand.NewSource(mixSeed(seed, "serve-mixed-decode", 0)))
	for _, c := range decodeClasses {
		for v := 0; v < decodeVariants; v++ {
			db, err := makeDecodeBody(rng, c)
			if err != nil {
				return nil, err
			}
			in.decodes = append(in.decodes, db)
		}
	}
	for s := 0; s < simulateSeeds; s++ {
		for i, c := range simConfigs {
			sb, err := makeSimBody(c, mixSeed(seed, "serve-mixed-fixed", s*len(simConfigs)+i))
			if err != nil {
				return nil, err
			}
			in.fixed = append(in.fixed, sb)
		}
	}
	for i := 0; i < freshBodies; i++ {
		sb, err := makeSimBody(simConfigs[i%len(simConfigs)], mixSeed(seed, "serve-mixed-fresh", i))
		if err != nil {
			return nil, err
		}
		in.fresh = append(in.fresh, sb)
	}
	return in, nil
}

// makeDecodeBody draws a reference stream and tag bits, translates them
// into the adjacent-channel stream with freerider.EncodeStream (single
// mode: the tag's flip state per PHY unit), corrupts 3% of the elements,
// and records the direct library decode as the expected answer.
func makeDecodeBody(rng *rand.Rand, c decodeClass) (decodeBody, error) {
	alphabet := 2
	if c.radio == freerider.ZigBee && !c.single {
		alphabet = 16
	}
	tagBits := make([]byte, c.length/c.window)
	for i := range tagBits {
		tagBits[i] = byte(rng.Intn(2))
	}
	var ref, rx []byte
	if c.single {
		rx = make([]byte, c.length)
		for i := range rx {
			rx[i] = tagBits[i/c.window]
		}
	} else {
		ref = make([]byte, c.length)
		for i := range ref {
			ref[i] = byte(rng.Intn(alphabet))
		}
		var err error
		if rx, _, err = freerider.EncodeStream(c.radio, ref, tagBits, c.window); err != nil {
			return decodeBody{}, err
		}
	}
	for i := range rx {
		if rng.Intn(100) < 3 {
			rx[i] = byte(rng.Intn(alphabet))
		}
	}
	req := freerider.DecodeRequest{Radio: c.radio, Ref: ref, RX: rx, Window: c.window, Single: c.single}
	ws, err := directDecode(req)
	if err != nil {
		return decodeBody{}, err
	}
	mode := "dual"
	if c.single {
		mode = "single"
	}
	body, err := json.Marshal(map[string]any{
		"radio": freerider.RadioKey(c.radio), "ref": streamString(ref), "rx": streamString(rx),
		"window": c.window, "mode": mode,
	})
	if err != nil {
		return decodeBody{}, err
	}
	return decodeBody{body: body, want: streamString(freerider.DecisionBits(ws)), request: req}, nil
}

// directDecode is the library call a /v1/decode request must match.
func directDecode(r freerider.DecodeRequest) ([]freerider.WindowDecision, error) {
	if r.Single {
		return freerider.DecodeDifferentialStream(r.Radio, r.RX, r.Window)
	}
	ws, _, err := freerider.DecodeStream(r.Radio, r.Ref, r.RX, r.Window)
	return ws, err
}

func makeSimBody(c simConfig, seed int64) (simBody, error) {
	req := simulateReq{Radio: c.Radio, Distance: c.Distance, Packets: c.Packets, Seed: seed, Receiver: c.Receiver}
	if c.Coded {
		fc := fec.DefaultConfig()
		req.Coding = &fc
	}
	body, err := json.Marshal(req)
	return simBody{body: body, cfg: c, seed: seed}, err
}

const hexDigits = "0123456789abcdef"

func streamString(vals []byte) string {
	var b strings.Builder
	b.Grow(len(vals))
	for _, v := range vals {
		b.WriteByte(hexDigits[v&0x0f])
	}
	return b.String()
}

// serveState is one set-up of the service under test.
type serveState struct {
	in     *serveInputs
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
}

func (st *serveState) close() {
	st.client.CloseIdleConnections()
	st.ts.Close()
	st.srv.Close()
}

// setupServe generates the inputs, starts the service on loopback and
// warms it: every fixed simulate body once (filling the session pool and
// the waveform cache) and every decode body once (opening connections).
func setupServe(seed int64, clients int) (*serveState, error) {
	in, err := makeServeInputs(seed)
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	st := &serveState{in: in, srv: srv, ts: ts, client: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients, DisableCompression: true,
	}}}
	for _, sb := range in.fixed {
		if _, _, err := st.post("/v1/simulate", sb.body); err != nil {
			st.close()
			return nil, fmt.Errorf("warm simulate: %w", err)
		}
	}
	for _, db := range in.decodes {
		if _, _, err := st.post("/v1/decode", db.body); err != nil {
			st.close()
			return nil, fmt.Errorf("warm decode: %w", err)
		}
	}
	return st, nil
}

// post sends one request and returns the body and its latency, failing on
// transport errors and any status but 200.
func (st *serveState) post(path string, body []byte) ([]byte, time.Duration, error) {
	t0 := time.Now()
	resp, err := st.client.Post(st.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	dt := time.Since(t0)
	if err != nil {
		return nil, dt, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, dt, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, dt, nil
}

// serveRun is one measurement of the serve workload, split into windows
// of serveWindow: the end-to-end metrics are medians over the windows, so
// a stretch of host contention shorter than half the run does not move
// them, while latencies within a window keep their tails.
type serveRun struct {
	in *serveInputs
	outcomeTally
	windows    []serveRun
	decodeMs   []float64
	simulateMs []float64
	simPackets int
	wall, cpu  time.Duration
	mallocs    uint64
	allocBytes uint64
	simResults map[*simBody][]core.SessionResult
}

// serveWindow is the length of one measurement window; five seconds hold
// about two thousand decodes, enough for a p99 with ten samples beyond.
const serveWindow = 5 * time.Second

// measureServe runs clients closed-loop clients until d has passed; each
// sends its next request only after the previous response is read. With
// more than one client the last sends only simulates and the others only
// decodes, so every decode meets the same background of simulate work
// rather than a tail set by which decodes happened to overlap a simulate;
// a lone client sends one simulate per cycleLen requests. Each client's
// n-th request is fixed by (client, n), so the mix is the same on every
// run.
func measureServe(st *serveState, clients int, d time.Duration) *serveRun {
	run := &serveRun{in: st.in, simResults: map[*simBody][]core.SessionResult{}}
	n := int(d / serveWindow)
	if n < 1 {
		n = 1
	}
	// sent[c] counts client c's requests, simulates and decodes so far;
	// it carries each client's sequence across windows.
	sent := make([][3]int, clients)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for w := 0; w < n; w++ {
		locals := make([]*serveRun, clients)
		start, cpu0 := time.Now(), cpuTime()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				local := &serveRun{simResults: map[*simBody][]core.SessionResult{}}
				ctr := &sent[c]
				for ; time.Since(start) < d/time.Duration(n); ctr[0]++ {
					if clients > 1 && c == clients-1 || clients == 1 && ctr[0]%cycleLen == cycleLen-1 {
						local.simulate(st, ctr[1])
						ctr[1]++
						continue
					}
					local.decode(st, c, ctr[2])
					ctr[2]++
				}
				locals[c] = local
			}(c)
		}
		wg.Wait()
		win := serveRun{wall: time.Since(start), cpu: cpuTime() - cpu0}
		for _, l := range locals {
			win.decodeMs = append(win.decodeMs, l.decodeMs...)
			win.simulateMs = append(win.simulateMs, l.simulateMs...)
			win.simPackets += l.simPackets
			run.merge(l)
		}
		run.windows = append(run.windows, win)
		run.wall += win.wall
		run.cpu += win.cpu
	}
	runtime.ReadMemStats(&ms1)
	run.mallocs = ms1.Mallocs - ms0.Mallocs
	run.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	return run
}

// decode sends client c's n-th decode: the classes in turn, each class's
// variants in turn.
func (r *serveRun) decode(st *serveState, c, n int) {
	k := len(decodeClasses)
	db := &st.in.decodes[(n%k)*decodeVariants+(n/k+c)%decodeVariants]
	r.attempted++
	out, dt, err := st.post("/v1/decode", db.body)
	if err != nil {
		r.fail(1, err.Error())
		return
	}
	r.decodeMs = append(r.decodeMs, ms(dt))
	var resp struct {
		TagBits string `json:"tag_bits"`
	}
	if err := json.Unmarshal(out, &resp); err != nil || resp.TagBits != db.want {
		r.fail(1, fmt.Sprintf("decode %s: tag_bits differ from the direct decode (%v)", freerider.RadioKey(db.request.Radio), err))
	}
}

func (r *serveRun) simulate(st *serveState, m int) {
	sb := &st.in.fixed[m%len(st.in.fixed)]
	if m%freshEvery == freshEvery-1 {
		sb = &st.in.fresh[(m/freshEvery)%len(st.in.fresh)]
	}
	r.attempted++
	out, dt, err := st.post("/v1/simulate", sb.body)
	if err != nil {
		r.fail(1, err.Error())
		return
	}
	r.simulateMs = append(r.simulateMs, ms(dt))
	r.simPackets += sb.cfg.Packets
	var resp struct {
		Result core.SessionResult `json:"result"`
	}
	if err := json.Unmarshal(out, &resp); err != nil {
		r.fail(1, fmt.Sprintf("simulate: %v", err))
		return
	}
	r.simResults[sb] = append(r.simResults[sb], resp.Result)
}

func (r *serveRun) merge(o *serveRun) {
	r.add(o.outcomeTally)
	r.decodeMs = append(r.decodeMs, o.decodeMs...)
	r.simulateMs = append(r.simulateMs, o.simulateMs...)
	r.simPackets += o.simPackets
	for k, v := range o.simResults {
		r.simResults[k] = append(r.simResults[k], v...)
	}
}

// verifyServe checks every simulate response against a direct RunParallel
// on the same config.
func verifyServe(run *serveRun, workers int) {
	for sb, got := range run.simResults {
		cfg, err := sb.coreConfig()
		if err != nil {
			run.fail(1, err.Error())
			continue
		}
		s, err := core.NewSession(cfg)
		if err != nil {
			run.fail(1, err.Error())
			continue
		}
		want, err := s.RunParallel(sb.cfg.Packets, workers)
		for _, g := range got {
			if err != nil || g != want {
				run.fail(1, fmt.Sprintf("simulate %s seed %d: %+v, direct RunParallel %+v (%v)", sb.cfg.Radio, sb.seed, g, want, err))
			}
		}
	}
}

// serveEndToEnd reports the serve workload's end-to-end metrics, each the
// median over the run's windows; a packet is one decode stream or one
// simulated packet.
func serveEndToEnd(run *serveRun, setup []float64, m metrics) {
	var pps, rps, cpuOp []float64
	var dec50, dec99, sim50, sim90 []quantile
	for _, w := range run.windows {
		done := float64(len(w.decodeMs) + len(w.simulateMs))
		pps = append(pps, float64(len(w.decodeMs)+w.simPackets)/w.wall.Seconds())
		rps = append(rps, done/w.wall.Seconds())
		cpuOp = append(cpuOp, ms(w.cpu)/done)
		dec50 = append(dec50, percentile(w.decodeMs, 50))
		dec99 = append(dec99, tailPercentile(w.decodeMs, 99))
		sim50 = append(sim50, percentile(w.simulateMs, 50))
		sim90 = append(sim90, tailPercentile(w.simulateMs, 90))
	}
	m.set("setup_s", median(setup), "s")
	m.set("packets_per_s", median(pps), "packets/s")
	m.set("cpu_ms_per_op", median(cpuOp), "ms")
	m.setQuantile("decode_ms_p50", medianQuantile(dec50), "ms")
	m.setQuantile("decode_ms_p99", medianQuantile(dec99), "ms")
	m.setQuantile("simulate_ms_p50", medianQuantile(sim50), "ms")
	m.setQuantile("simulate_ms_p90", medianQuantile(sim90), "ms")
	m.set("requests_per_s", median(rps), "1/s")
}

// metricsSnapshot is the part of GET /metrics the per-layer metrics use.
type metricsSnapshot struct {
	Endpoints map[string]struct {
		Rejected int64 `json:"rejected"`
		Latency  struct {
			P50Ms float64 `json:"p50_ms"`
		} `json:"latency"`
	} `json:"endpoints"`
	SessionPool struct {
		HitRate float64 `json:"hit_rate"`
	} `json:"session_pool"`
	Batcher struct {
		MeanBatch    float64 `json:"mean_batch"`
		DrainRejects int64   `json:"drain_rejects"`
	} `json:"batcher"`
	WaveformCache struct {
		Bytes   int64   `json:"bytes"`
		HitRate float64 `json:"hit_rate"`
	} `json:"waveform_cache"`
}

// serveLayerMetrics reads the service's own counters after a run and times
// the direct stream decodes the decode requests stand for.
func serveLayerMetrics(st *serveState, run *serveRun, m metrics) error {
	resp, err := st.client.Get(st.ts.URL + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var snap metricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return fmt.Errorf("decode /metrics: %w", err)
	}
	rejected := snap.Batcher.DrainRejects
	for _, ep := range snap.Endpoints {
		rejected += ep.Rejected
	}
	m.set("server.batch_mean", snap.Batcher.MeanBatch, "requests")
	m.set("server.pool_hit_ratio", snap.SessionPool.HitRate, "ratio")
	m.set("server.rejected", float64(rejected), "count")
	m.set("server.decode_handler_ms_p50", snap.Endpoints["decode"].Latency.P50Ms, "ms")
	m.set("server.simulate_handler_ms_p50", snap.Endpoints["simulate"].Latency.P50Ms, "ms")
	m.set("waveform.hit_ratio", snap.WaveformCache.HitRate, "ratio")
	m.set("waveform.bytes", float64(snap.WaveformCache.Bytes), "bytes")

	// decoder.stream: each decode body's direct library decode, timed in
	// proportion to how often the request mix sends it.
	var streamUs []float64
	for rep := 0; rep < 5; rep++ {
		for _, db := range st.in.decodes {
			t0 := time.Now()
			if _, err := directDecode(db.request); err != nil {
				return err
			}
			streamUs = append(streamUs, float64(time.Since(t0))/1e3)
		}
	}
	stream := median(streamUs)
	m.set("decoder.stream_us", stream, "us")
	m.set("server.decode_overhead_ms", median(run.decodeMs)-stream/1e3, "ms")
	return nil
}
