package main

import (
	"math"
	"runtime"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1..1000, reversed
	}
	q := tailPercentile(xs, 99)
	if q.Value != 990 || q.Percentile != 99 || q.Samples != 1000 {
		t.Fatalf("p99 of 1..1000 = %+v, want 990 at 99th", q)
	}
	// 400 samples cannot support p99 (4 beyond); the highest percentile
	// with ten beyond is rank 390.
	q = tailPercentile(xs[:400], 99)
	beyond := 0
	for _, x := range xs[:400] {
		if x > q.Value {
			beyond++
		}
	}
	if beyond != minTail || q.Percentile != 97.5 {
		t.Fatalf("p99 of 400 samples = %+v with %d beyond, want %d beyond at 97.5th", q, beyond, minTail)
	}
	// Too few samples for any tail: fall back to the median.
	q = tailPercentile([]float64{5, 1, 3}, 99)
	if q.Value != 3 {
		t.Fatalf("p99 of 3 samples = %+v, want the median 3", q)
	}
	if q := tailPercentile(nil, 99); q.Samples != 0 {
		t.Fatalf("empty input gave %+v", q)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2 {
		t.Fatalf("median = %v, want 2 (nearest rank)", got)
	}
	if got := percentile(xs, 100).Value; got != 4 {
		t.Fatalf("p100 = %v, want 4", got)
	}
	if xs[0] != 4 {
		t.Fatalf("percentile sorted its input in place")
	}
}

// spansOf builds a trace from (name, parent, start, end) tuples.
func spansOf(rows ...[4]int64) []span {
	out := make([]span, len(rows))
	for i, r := range rows {
		out[i] = span{Name: string(rune('a' + i)), Parent: int(r[1]), Start: r[2], End: r[3]}
	}
	return out
}

func TestSelfTimeNestedSpans(t *testing.T) {
	spans := spansOf(
		[4]int64{0, -1, 0, 100}, // a: root 0..100
		[4]int64{0, 0, 10, 40},  // b: child of a
		[4]int64{0, 1, 15, 25},  // c: child of b
		[4]int64{0, 0, 30, 60},  // d: child of a overlapping b
		[4]int64{0, 0, 90, 120}, // e: child of a running past its end
	)
	self := selfTimes(spans)
	// a: children cover 10..60 and 90..100 → 60 covered of 100.
	want := []int64{40, 20, 10, 30, 30}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%s] = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
	if got := childNs(spans); got != 60 {
		t.Errorf("childNs = %d, want 60", got)
	}
}

func TestTracerNestsAndNilRecordsNothing(t *testing.T) {
	tr := newTracer(time.Now())
	root := tr.begin("root", 7)
	child := tr.begin("child", 7)
	tr.end(child)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 || tr.spans[1].ID != 7 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	var none *tracer
	none.end(none.begin("x", 1))
}

func TestStageCoverage(t *testing.T) {
	cov, res := stageCoverage(900, 1000, 2)
	if math.Abs(cov-0.9) > 1e-12 || math.Abs(res-0.05) > 1e-12 {
		t.Fatalf("coverage %v residual %v µs, want 0.9 and 0.05", cov, res)
	}
	cov, res = stageCoverage(1100, 1000, 1)
	if math.Abs(cov-1.1) > 1e-12 || math.Abs(res+0.1) > 1e-12 {
		t.Fatalf("over-covered: coverage %v residual %v, want 1.1 and -0.1", cov, res)
	}
	if cov, _ := stageCoverage(5, 0, 1); cov != 0 {
		t.Fatalf("no whole-packet time gave coverage %v", cov)
	}
}

func TestStageTableSharesSelfTime(t *testing.T) {
	spans := []span{
		{Name: "core.packet", ID: 1, Parent: -1, Start: 0, End: 100},
		{Name: "wifi.rx", ID: 1, Parent: 0, Start: 10, End: 70},
		{Name: "core.packet", ID: 2, Parent: -1, Start: 100, End: 200},
		{Name: "wifi.rx", ID: 2, Parent: 2, Start: 100, End: 120},
		{Name: "wifi.rx", ID: 2, Parent: 2, Start: 150, End: 170},
	}
	rows := map[string]stageRow{}
	for _, r := range stageTable(spans) {
		rows[r.Stage] = r
	}
	rx := rows["wifi.rx"]
	if rx.Calls != 3 || rx.Packets != 2 || rx.SelfUsPerPacket != 0.05 || rx.Share != 0.5 {
		t.Fatalf("wifi.rx row = %+v", rx)
	}
	if p := rows["core.packet"]; p.SelfUsTotal != 0.1 || p.Share != 0.5 {
		t.Fatalf("core.packet row = %+v", p)
	}
}

func TestMixSeedIsStableAndNonzero(t *testing.T) {
	if mixSeed(1, "x", 0) != mixSeed(1, "x", 0) {
		t.Fatal("mixSeed is not deterministic")
	}
	if mixSeed(1, "x", 0) == mixSeed(1, "x", 1) || mixSeed(1, "x", 0) == mixSeed(2, "x", 0) {
		t.Fatal("mixSeed collides on distinct inputs")
	}
}

// smoke runs one short measurement of a workload and requires every
// output check to pass and every metric of the mode to be reported.
func smoke(t *testing.T, workload string, trace bool) {
	t.Helper()
	if testing.Short() {
		t.Skip("smoke runs take seconds")
	}
	if err := loadRecorded(); err != nil {
		t.Fatal(err)
	}
	m := newMetrics()
	var tally outcomeTally
	var rep report
	workers := runtime.NumCPU()
	var err error
	names := endToEnd
	if trace {
		names = perLayer
		err = tracedRun(workload, defaultSeed, time.Second, workers, m, &tally, &rep, t.TempDir())
	} else {
		err = untracedRun(workload, defaultSeed, time.Second, workers, m, &tally, &rep)
	}
	if err != nil {
		t.Fatal(err)
	}
	if tally.failed != 0 || tally.attempted == 0 {
		t.Fatalf("%d of %d operations failed: %v", tally.failed, tally.attempted, tally.mismatches)
	}
	for _, n := range names {
		v, ok := m.vals[n]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("metric %s = %+v (reported %v)", n, v, ok)
		}
	}
	// A one-second run replays about a dozen packets, so the band only
	// catches broken stage accounting; full runs land within 0.9–1.1.
	if cov := m.vals["core.stage_coverage"].Value; trace && (cov < 0.6 || cov > 1.4) {
		t.Errorf("core.stage_coverage = %v, want about 1", cov)
	}
}

func TestSmokeWiFiFresh(t *testing.T)        { smoke(t, "wifi-fresh", false) }
func TestSmokeZigBeeBTReplay(t *testing.T)   { smoke(t, "zb-bt-replay", false) }
func TestSmokeServeMixed(t *testing.T)       { smoke(t, "serve-mixed", false) }
func TestSmokeTracedWiFiFresh(t *testing.T)  { smoke(t, "wifi-fresh", true) }
func TestSmokeTracedServeMixed(t *testing.T) { smoke(t, "serve-mixed", true) }
