// Command perfbench is the repository benchmark. One run executes one
// workload from a single process and prints every metric by name with its
// unit, after checking every output the workload produced:
//
//	bash perfbench/run.sh --workload wifi-fresh --seed 1 --seconds 15 --trace 0
//
// Workloads (README.md records why each was chosen):
//
//   - wifi-fresh: WiFi dual-receiver sessions at DefaultConfig over a
//     2–50 m distance sweep, no waveform cache, driven by RunParallel.
//   - zb-bt-replay: ZigBee and Bluetooth sessions (dual, single-receiver
//     and RS-coded) sharing one waveform cache and content seed across a
//     distance sweep, so after set-up every synthesis is a cache hit.
//   - serve-mixed: closed-loop HTTP clients against the in-process service
//     (default server.Config), mostly packet-sized /v1/decode streams plus
//     a rotation of small /v1/simulate runs. BENCHMARK.json leaves it out
//     because its tail latencies follow host contention; traced runs of
//     the other two still use it for the server metrics.
//
// With --trace 0 the run reports end-to-end metrics only. With --trace 1 it
// reports per-layer metrics: a short untraced pass of the workload (for the
// service counters, allocation and utilisation figures) and then a replay
// of a sample of the workload's packets that calls each layer's public
// functions in pipeline order with a span around every call. Layers the
// workload never runs are measured on a smaller companion sample of the
// other workloads, so every run reports every metric. Spans are written to
// the -out directory when the run ends; the per-stage self-time tables go
// to standard output before the result line.
//
// Use no more worker goroutines or connections than the host has CPUs.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/simd"
)

// defaultSeed is the seed whose per-point results recorded.json pins.
const defaultSeed = 1

// setupReps is how many times a run sets its workload up; setup_s is the
// median and the last set-up is the one measured.
const setupReps = 5

//go:embed recorded.json
var recordedJSON []byte

// recorded maps workload → sweep point → its RunParallel result at the
// default seed.
var recorded map[string]map[string]resultSummary

// endToEnd and perLayer are the metric names every run must report, in
// the order BENCHMARK.json lists them.
var endToEnd = []string{
	"setup_s", "packets_per_s", "cpu_ms_per_op", "peak_rss_mb",
	"decode_ms_p50", "decode_ms_p99", "simulate_ms_p50", "simulate_ms_p90", "requests_per_s",
}

var perLayer = []string{
	"wifi.tx_us", "zigbee.tx_us", "bluetooth.tx_us", "tag.translate_us",
	"waveform.lookup_us", "waveform.hit_ratio", "waveform.bytes", "channel.apply_us",
	"wifi.rx_us", "zigbee.rx_us", "bluetooth.rx_us",
	"wifi.detect_ratio", "zigbee.detect_ratio", "bluetooth.detect_ratio",
	"wifi.viterbi_us", "signal.fft64_ns", "decoder.windows_us", "decoder.stream_us",
	"fec.encode_us", "fec.decode_us", "core.new_session_us", "core.residual_us",
	"core.stage_coverage", "core.allocs_per_op", "core.bytes_per_op", "runner.utilisation",
	"server.batch_mean", "server.pool_hit_ratio", "server.rejected",
	"server.decode_handler_ms_p50", "server.simulate_handler_ms_p50",
	"server.decode_overhead_ms", "trace.overhead",
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects named values plus, for order statistics, which
// percentile and sample count each came from.
type metrics struct {
	vals      map[string]metricValue
	quantiles map[string]quantile
}

func newMetrics() metrics {
	return metrics{vals: map[string]metricValue{}, quantiles: map[string]quantile{}}
}

func (m metrics) set(name string, v float64, unit string) { m.vals[name] = metricValue{v, unit} }

func (m metrics) setQuantile(name string, q quantile, unit string) {
	m.set(name, q.Value, unit)
	m.quantiles[name] = q
}

// fill copies the metrics of o that m lacks.
func (m metrics) fill(o metrics) {
	for k, v := range o.vals {
		if _, ok := m.vals[k]; !ok {
			m.vals[k] = v
		}
	}
	for k, v := range o.quantiles {
		if _, ok := m.quantiles[k]; !ok {
			m.quantiles[k] = v
		}
	}
}

// result is the final stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is the line before it: how the numbers were obtained.
type report struct {
	Workload    string                `json:"workload"`
	Seed        int64                 `json:"seed"`
	Trace       bool                  `json:"trace"`
	Seconds     int                   `json:"seconds"`
	Host        map[string]any        `json:"host"`
	Quantiles   map[string]quantile   `json:"quantiles,omitempty"`
	SetupS      []float64             `json:"setup_s_samples,omitempty"`
	Cycles      int                   `json:"cycles,omitempty"`
	StageTables map[string][]stageRow `json:"stage_tables,omitempty"`
	SpansFile   string                `json:"spans_file,omitempty"`
	Mismatches  []string              `json:"mismatches,omitempty"`
}

// outcomeTally counts operations attempted and failed, with a message per
// failure; each measurement embeds one and a run adds them up.
type outcomeTally struct {
	attempted, failed int
	mismatches        []string
}

// fail records n failed operations.
func (t *outcomeTally) fail(n int, msg string) {
	t.failed += n
	t.mismatches = append(t.mismatches, msg)
}

func (t *outcomeTally) add(o outcomeTally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.mismatches = append(t.mismatches, o.mismatches...)
}

func main() {
	workload := flag.String("workload", "", "wifi-fresh, zb-bt-replay or serve-mixed")
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 10, "measurement length in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for span dumps")
	record := flag.Bool("record", false, "print the default-seed sweep results for recorded.json and exit")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *out, *record); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, trace int, out string, record bool) error {
	if err := loadRecorded(); err != nil {
		return err
	}
	workers := runtime.NumCPU()
	if record {
		return recordResults(workers)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d must be at least 1", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace %d must be 0 or 1", trace)
	}
	rep := report{Workload: workload, Seed: seed, Trace: trace == 1, Seconds: seconds, Host: hostFacts()}
	m := newMetrics()
	var tally outcomeTally
	d := time.Duration(seconds) * time.Second
	var err error
	if trace == 1 {
		err = tracedRun(workload, seed, d, workers, m, &tally, &rep, out)
	} else {
		err = untracedRun(workload, seed, d, workers, m, &tally, &rep)
	}
	if err != nil {
		return err
	}
	names := endToEnd
	if trace == 1 {
		names = perLayer
	}
	res := result{Attempted: tally.attempted, Failed: tally.failed, Metrics: map[string]metricValue{}}
	for _, n := range names {
		v, ok := m.vals[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		res.Metrics[n] = v
	}
	res.Correct = tally.failed == 0 && tally.attempted > 0
	rep.Quantiles = m.quantiles
	if len(tally.mismatches) > 20 {
		tally.mismatches = tally.mismatches[:20]
	}
	rep.Mismatches = tally.mismatches
	if err := printJSON(map[string]report{"perfbench": rep}); err != nil {
		return err
	}
	return printJSON(res)
}

func loadRecorded() error {
	if err := json.Unmarshal(recordedJSON, &recorded); err != nil {
		return fmt.Errorf("recorded.json: %w", err)
	}
	return nil
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

func hostFacts() map[string]any {
	return map[string]any{
		"simd":       simd.Mode(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"goarch":     runtime.GOARCH,
	}
}

func packetWorkloadNamed(name string) (packetWorkload, bool) {
	switch name {
	case wifiFresh.name:
		return wifiFresh, true
	case zbBTReplay.name:
		return zbBTReplay, true
	}
	return packetWorkload{}, false
}

// untracedRun sets the workload up setupReps times, measures the last
// set-up for d and checks its outputs.
func untracedRun(workload string, seed int64, d time.Duration, workers int, m metrics, tally *outcomeTally, rep *report) error {
	var setup []float64
	if pw, ok := packetWorkloadNamed(workload); ok {
		var st *packetState
		for i := 0; i < setupReps; i++ {
			st = nil
			runtime.GC()
			t0 := time.Now()
			var err error
			if st, err = setupPackets(pw, seed, workers); err != nil {
				return err
			}
			setup = append(setup, time.Since(t0).Seconds())
		}
		run, err := measurePackets(st, d, workers)
		if err != nil {
			return err
		}
		verifyPackets(pw, st, run, seed)
		packetEndToEnd(run, setup, m)
		rep.Cycles = run.cycles
		tally.add(run.outcomeTally)
	} else if workload == "serve-mixed" {
		var st *serveState
		for i := 0; i < setupReps; i++ {
			if st != nil {
				st.close()
			}
			st = nil
			runtime.GC()
			t0 := time.Now()
			var err error
			if st, err = setupServe(seed, workers); err != nil {
				return err
			}
			setup = append(setup, time.Since(t0).Seconds())
		}
		run := measureServe(st, workers, d)
		st.close()
		verifyServe(run, workers)
		serveEndToEnd(run, setup, m)
		tally.add(run.outcomeTally)
	} else {
		return fmt.Errorf("unknown workload %q (want wifi-fresh, zb-bt-replay or serve-mixed)", workload)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	m.set("peak_rss_mb", rss, "MB")
	rep.SetupS = setup
	return nil
}

// Shares of the traced run's time: the untraced pass, the workload's own
// replay, and each companion.
const (
	tracedPassShare   = 0.3
	tracedReplayShare = 0.4
	companionShare    = 0.15
	replayPerConfig   = 2
)

// tracedRun measures the per-layer metrics of one workload.
func tracedRun(workload string, seed int64, d time.Duration, workers int, m metrics, tally *outcomeTally, rep *report, out string) error {
	share := func(f float64) time.Duration { return time.Duration(f * float64(d)) }
	rep.StageTables = map[string][]stageRow{}
	spans := map[string][]span{}
	keep := func(rr *replayRun) {
		rep.StageTables[rr.name] = stageTable(rr.spans)
		spans[rr.name] = rr.spans
		tally.add(rr.outcomeTally)
	}
	companions := newMetrics()
	pw, isPacket := packetWorkloadNamed(workload)
	switch {
	case isPacket:
		st, err := setupPackets(pw, seed, workers)
		if err != nil {
			return err
		}
		run, err := measurePackets(st, share(tracedPassShare), workers)
		if err != nil {
			return err
		}
		verifyPackets(pw, st, run, seed)
		tally.add(run.outcomeTally)
		m.set("core.allocs_per_op", float64(run.mallocs)/float64(run.attempted), "allocs")
		m.set("core.bytes_per_op", float64(run.allocBytes)/float64(run.attempted), "bytes")
		m.set("runner.utilisation", run.cpu.Seconds()/(run.wall.Seconds()*float64(workers)), "ratio")
		if st.cache != nil {
			cs := st.cache.Stats()
			m.set("waveform.hit_ratio", cs.HitRate, "ratio")
			m.set("waveform.bytes", float64(cs.Bytes), "bytes")
		}
		rr, err := replaySample(pw.name, st.points, pw.cached, replayPerConfig, share(tracedReplayShare))
		if err != nil {
			return err
		}
		keep(rr)
		own := newMetrics()
		rr.layerMetrics(own)
		m.fill(own)

		other := zbBTReplay
		if pw.name == zbBTReplay.name {
			other = wifiFresh
		}
		crr, err := replaySample(other.name, other.points(seed), other.cached, 1, share(companionShare))
		if err != nil {
			return err
		}
		keep(crr)
		crr.layerMetrics(companions)
		if _, err := servePass(seed, workers, share(companionShare), companions, tally); err != nil {
			return err
		}
	case workload == "serve-mixed":
		run, err := servePass(seed, workers, share(tracedPassShare), m, tally)
		if err != nil {
			return err
		}
		ops := float64(len(run.decodeMs) + len(run.simulateMs))
		m.set("core.allocs_per_op", float64(run.mallocs)/ops, "allocs")
		m.set("core.bytes_per_op", float64(run.allocBytes)/ops, "bytes")
		m.set("runner.utilisation", run.cpu.Seconds()/(run.wall.Seconds()*float64(workers)), "ratio")
		var pts []point
		for _, sb := range run.in.fixed[:len(simConfigs)] {
			cfg, err := sb.coreConfig()
			if err != nil {
				return err
			}
			pts = append(pts, point{fmt.Sprintf("%s-%s-%gm", sb.cfg.Radio, sb.cfg.Receiver, sb.cfg.Distance), cfg, sb.cfg.Packets})
		}
		rr, err := replaySample(workload, pts, true, replayPerConfig, share(tracedReplayShare+companionShare))
		if err != nil {
			return err
		}
		keep(rr)
		own := newMetrics()
		rr.layerMetrics(own)
		m.fill(own)
	default:
		return fmt.Errorf("unknown workload %q (want wifi-fresh, zb-bt-replay or serve-mixed)", workload)
	}
	if err := layerProbes(m); err != nil {
		return err
	}
	m.fill(companions)
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	rep.SpansFile = filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	return writeSpans(rep.SpansFile, spans)
}

// servePass measures serve-mixed untraced for d and reads the service's
// and the stream decoder's per-layer metrics into m.
func servePass(seed int64, workers int, d time.Duration, m metrics, tally *outcomeTally) (*serveRun, error) {
	st, err := setupServe(seed, workers)
	if err != nil {
		return nil, err
	}
	run := measureServe(st, workers, d)
	err = serveLayerMetrics(st, run, m)
	st.close()
	if err != nil {
		return nil, err
	}
	verifyServe(run, workers)
	tally.add(run.outcomeTally)
	return run, nil
}

// recordResults prints the default-seed RunParallel result of every point
// of both packet workloads, in recorded.json's format.
func recordResults(workers int) error {
	all := map[string]map[string]resultSummary{}
	for _, pw := range []packetWorkload{wifiFresh, zbBTReplay} {
		st, err := setupPackets(pw, defaultSeed, workers)
		if err != nil {
			return err
		}
		all[pw.name] = map[string]resultSummary{}
		for i, s := range st.sessions {
			res, err := s.RunParallel(st.points[i].Packets, workers)
			if err != nil {
				return err
			}
			all[pw.name][st.points[i].Name] = summarize(res)
		}
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// mixSeed derives a nonzero input seed from the workload seed, a label and
// an index (FNV-1a, then a splitmix64 finalizer), independent of any seed
// derivation inside the program under test.
func mixSeed(seed int64, label string, idx int) int64 {
	h := uint64(14695981039346656037)
	for _, v := range []uint64{uint64(seed), uint64(int64(idx))} {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= 1099511628211
		}
	}
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	if h == 0 {
		h = 1
	}
	return int64(h)
}
