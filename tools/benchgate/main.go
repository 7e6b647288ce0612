// Command benchgate turns `go test -bench` output into a benchmark
// trajectory and a regression gate for the DSP fast path.
//
// It reads benchmark output on stdin, keeps the minimum ns/op and
// allocs/op per benchmark across repeated -count runs (the minimum is the
// noise-robust statistic on shared CI machines: scheduling jitter only
// ever adds time), appends one JSON line per invocation to -out, and
// compares the run against the checked-in -baseline:
//
//   - ns/op regresses when new > old × 1.15 (>15% slower);
//   - allocs/op regresses when new > max(old × 1.05, old + 2) — since the
//     per-packet paths recycle scratch through GC-stable free lists
//     (signal.FreeList) the counts are deterministic, so the budget only
//     needs to absorb rounding on fractional per-op averages;
//   - a baseline benchmark missing from the run is an error, so the gate
//     cannot be silenced by deleting or renaming a benchmark.
//
// On shared CI machines the whole run can land in a slow phase (noisy
// neighbours, frequency scaling), which would flag every benchmark at
// once. The -probe benchmark — a fixed pure-CPU workload that never
// changes — measures the machine's speed in the same run; ns/op
// comparisons are scaled by probe(now)/probe(baseline) so machine-wide
// slowdowns cancel and only code-relative regressions trip the gate.
//
// Custom benchmark metrics (b.ReportMetric units such as hit-rate,
// coalesced/s or lockwait-ns/op) are recorded in the
// trajectory alongside ns/op and allocs/op — "/" in the unit becomes
// "_per_" so the JSON keys stay flat — but are never gated: they
// describe workload shape, not performance budgets. Cost-like extras
// fold to the minimum across -count runs like ns/op; rate-like extras
// (units ending in "/s", e.g. the contention benchmark's coalesced/s)
// fold to the maximum, because for a throughput the high watermark is
// the noise-robust statistic — jitter only ever loses events.
//
// With -update it instead rewrites the baseline from the current run.
// Benchmarks present in the run but not the baseline pass with a notice
// (they enter the gate at the next -update).
//
// With -compare it reads no benchmark output at all: it loads the -out
// trajectory and prints the percent delta of every metric between the
// last two recorded points, which is how `make bench-compare` answers
// "what did the last change cost?". Metrics present in only one of the
// two points get an explicit "added" or "removed" line — a renamed
// benchmark shows up as one of each instead of vanishing from the diff.
//
// Usage:
//
//	go test -bench=... -benchmem -count=5 ./... | benchgate \
//	    -baseline BENCH_DSP_BASELINE.json -out BENCH_DSP.json [-update]
//	benchgate -compare -out BENCH_DSP.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// point is one benchmark's noise-floor measurement.
type point struct {
	NsOp     float64 `json:"ns_op"`
	AllocsOp float64 `json:"allocs_op"`
}

// baseline is the checked-in gate reference. ProbeNsOp records how fast
// the machine ran the calibration probe when the baseline was taken;
// Dispatch records which SIMD kernel path (avx2/go, or a "+"
// join if packages disagreed) produced the numbers.
type baseline struct {
	Recorded   string           `json:"recorded"`
	Note       string           `json:"note,omitempty"`
	ProbeNsOp  float64          `json:"probe_ns_op,omitempty"`
	Dispatch   string           `json:"dispatch,omitempty"`
	Benchmarks map[string]point `json:"benchmarks"`
}

func main() {
	basePath := flag.String("baseline", "BENCH_DSP_BASELINE.json", "checked-in baseline to gate against")
	outPath := flag.String("out", "BENCH_DSP.json", "JSONL trajectory file to append this run to")
	update := flag.Bool("update", false, "rewrite the baseline from this run instead of gating")
	compare := flag.Bool("compare", false, "diff the last two points of -out in percent and exit (reads no bench output)")
	probeName := flag.String("probe", "CalibrationProbe", "calibration benchmark used to cancel machine-speed swings")
	flag.Parse()

	if *compare {
		if err := comparePoints(*outPath); err != nil {
			fatal("compare %s: %v", *outPath, err)
		}
		return
	}

	cur, extras, dispatch, err := parseBench(os.Stdin)
	if err != nil {
		fatal("parse bench output: %v", err)
	}
	if len(cur) == 0 {
		fatal("no benchmark lines on stdin (did the bench run fail?)")
	}
	probe, haveProbe := cur[*probeName]
	delete(cur, *probeName)
	delete(extras, *probeName)

	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)

	if err := appendTrajectory(*outPath, names, cur, extras, probe.NsOp, dispatch); err != nil {
		fatal("append %s: %v", *outPath, err)
	}

	if *update {
		if err := writeBaseline(*basePath, names, cur, probe.NsOp, dispatch); err != nil {
			fatal("write %s: %v", *basePath, err)
		}
		fmt.Printf("benchgate: recorded baseline with %d benchmarks to %s\n", len(cur), *basePath)
		return
	}

	base, err := readBaseline(*basePath)
	if err != nil {
		fatal("read %s: %v (run `make bench-dsp-baseline` to record one)", *basePath, err)
	}
	scale, ok := speedScale(base, probe, haveProbe)
	if !ok {
		fatal("baseline was recorded with probe %s but this run did not produce it", *probeName)
	}
	if base.ProbeNsOp > 0 {
		fmt.Printf("benchgate: machine-speed scale %.3f (probe %.0f ns/op now vs %.0f at baseline)\n",
			scale, probe.NsOp, base.ProbeNsOp)
	}
	if w := dispatchWarning(base.Dispatch, dispatch); w != "" {
		fmt.Println(w)
	}
	if gate(os.Stdout, base, names, cur, scale) {
		os.Exit(1)
	}
}

// speedScale is the factor baseline ns/op budgets are multiplied by:
// probe ns/op now over probe ns/op at baseline, or 1 when the baseline
// recorded no probe. ok is false when the baseline has a probe and the
// run does not.
func speedScale(base *baseline, probe point, haveProbe bool) (scale float64, ok bool) {
	if base.ProbeNsOp <= 0 {
		return 1, true
	}
	if !haveProbe {
		return 0, false
	}
	return probe.NsOp / base.ProbeNsOp, true
}

// dispatchWarning returns the warning for a run whose SIMD dispatch
// differs from the baseline's, or "" when they agree or either is
// unknown. A mismatch warns and does not fail the gate.
func dispatchWarning(base, run string) string {
	if base == "" || run == "" || base == run {
		return ""
	}
	return fmt.Sprintf("benchgate: WARNING: this run used SIMD dispatch %q but the baseline was recorded under %q — "+
		"ns/op comparisons mix kernel sets; re-record with `make bench-dsp-baseline` on matching hardware",
		run, base)
}

// parseBench folds `go test -bench` stdout into per-benchmark minima.
// Lines look like:
//
//	BenchmarkFFT64-8   100   1234 ns/op   0 B/op   0 allocs/op
//
// The -P GOMAXPROCS suffix is stripped and "/" in sub-benchmark names is
// flattened so the names are stable JSON keys. Custom b.ReportMetric
// units (anything other than ns/op, B/op, allocs/op, MB/s) are returned
// per benchmark in the extras map, keyed by the unit with "/" flattened
// to "_per_". Cost-like extras fold to the minimum across -count runs
// like ns/op; rate-like extras (unit ends in "/s") fold to the maximum.
//
// "simd-dispatch: <mode>" banner lines (printed by the TestMains of the
// benchmarked packages) are folded into the dispatch return: the single
// mode when every package agrees, or a "+"-joined sorted set when a run
// somehow mixes kernel paths — a mixed value in the trajectory is
// itself a signal worth seeing.
func parseBench(r io.Reader) (map[string]point, map[string]map[string]float64, string, error) {
	out := map[string]point{}
	extras := map[string]map[string]float64{}
	modes := map[string]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // tee: keep the raw output visible in logs
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "simd-dispatch:"); ok {
			if mode := strings.TrimSpace(rest); mode != "" {
				modes[mode] = true
			}
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(f[0], "Benchmark")
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		name = strings.Map(func(r rune) rune {
			switch r {
			case '/', ' ':
				return '_'
			}
			return r
		}, name)
		p := point{NsOp: -1, AllocsOp: -1}
		for i := 2; i+1 < len(f); i++ {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "ns/op":
				p.NsOp = v
			case "allocs/op":
				p.AllocsOp = v
			case "B/op", "MB/s":
				// tracked implicitly via allocs and ns; not recorded
			default:
				rate := strings.HasSuffix(f[i+1], "/s")
				unit := strings.ReplaceAll(f[i+1], "/", "_per_")
				m := extras[name]
				if m == nil {
					m = map[string]float64{}
					extras[name] = m
				}
				if prev, ok := m[unit]; !ok || (rate && v > prev) || (!rate && v < prev) {
					m[unit] = v
				}
			}
		}
		if p.NsOp < 0 {
			continue
		}
		if p.AllocsOp < 0 {
			p.AllocsOp = 0 // benchmark ran without -benchmem
		}
		if prev, ok := out[name]; ok {
			if prev.NsOp < p.NsOp {
				p.NsOp = prev.NsOp
			}
			if prev.AllocsOp < p.AllocsOp {
				p.AllocsOp = prev.AllocsOp
			}
		}
		out[name] = p
	}
	modeList := make([]string, 0, len(modes))
	for m := range modes {
		modeList = append(modeList, m)
	}
	sort.Strings(modeList)
	return out, extras, strings.Join(modeList, "+"), sc.Err()
}

func appendTrajectory(path string, names []string, cur map[string]point, extras map[string]map[string]float64, probeNs float64, dispatch string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "{\"date\":%q", time.Now().Format("2006-01-02"))
	if probeNs > 0 {
		fmt.Fprintf(&b, ",\"probe_ns_op\":%g", probeNs)
	}
	if dispatch != "" {
		fmt.Fprintf(&b, ",\"dispatch\":%q", dispatch)
	}
	for _, name := range names {
		p := cur[name]
		fmt.Fprintf(&b, ",\"%s_ns_op\":%g,\"%s_allocs_op\":%g", name, p.NsOp, name, p.AllocsOp)
		units := make([]string, 0, len(extras[name]))
		for unit := range extras[name] {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			fmt.Fprintf(&b, ",\"%s_%s\":%g", name, unit, extras[name][unit])
		}
	}
	b.WriteString("}\n")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(b.String()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readBaseline(path string) (*baseline, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b baseline
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, err
	}
	if len(b.Benchmarks) == 0 {
		return nil, fmt.Errorf("baseline has no benchmarks")
	}
	return &b, nil
}

func writeBaseline(path string, names []string, cur map[string]point, probeNs float64, dispatch string) error {
	b := baseline{
		Recorded:   time.Now().Format("2006-01-02"),
		Note:       "min ns/op and allocs/op across -count runs; gate: ns/op <= old*scale*1.15 (scale = probe now / probe at baseline), allocs/op <= max(old*1.05, old+2)",
		ProbeNsOp:  probeNs,
		Dispatch:   dispatch,
		Benchmarks: map[string]point{},
	}
	for _, name := range names {
		b.Benchmarks[name] = cur[name]
	}
	raw, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// gate compares the run against the baseline, writing its verdicts to w,
// and reports true when any benchmark regressed or disappeared. scale is
// the machine-speed ratio from the calibration probe; baseline ns/op
// budgets are multiplied by it before comparison.
func gate(w io.Writer, base *baseline, names []string, cur map[string]point, scale float64) bool {
	bad := false
	baseNames := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		baseNames = append(baseNames, name)
	}
	sort.Strings(baseNames)
	for _, name := range baseNames {
		old := base.Benchmarks[name]
		now, ok := cur[name]
		if !ok {
			fmt.Fprintf(w, "benchgate: FAIL %s: in baseline but absent from this run\n", name)
			bad = true
			continue
		}
		if budget := old.NsOp * scale; now.NsOp > budget*1.15 {
			fmt.Fprintf(w, "benchgate: FAIL %s: %.0f ns/op vs speed-adjusted baseline %.0f (+%.1f%% > 15%% budget)\n",
				name, now.NsOp, budget, 100*(now.NsOp/budget-1))
			bad = true
		}
		allocCap := old.AllocsOp * 1.05
		if add := old.AllocsOp + 2; add > allocCap {
			allocCap = add
		}
		if now.AllocsOp > allocCap {
			fmt.Fprintf(w, "benchgate: FAIL %s: %.0f allocs/op vs baseline %.0f (cap %.0f)\n",
				name, now.AllocsOp, old.AllocsOp, allocCap)
			bad = true
		}
	}
	for _, name := range names {
		if _, ok := base.Benchmarks[name]; !ok {
			fmt.Fprintf(w, "benchgate: note: %s not in baseline (gated after next bench-dsp-baseline)\n", name)
		}
	}
	if !bad {
		fmt.Fprintf(w, "benchgate: OK — %d benchmarks within budget of %s baseline\n", len(baseNames), base.Recorded)
	}
	return bad
}

// comparePoints prints the percent delta of every metric between the
// last two JSONL points of the trajectory file. Negative ns/op and
// allocs/op deltas are improvements; throughput-like extras (hit-rate,
// coalesced/s) read the other way — the tool prints signed deltas and
// leaves the judgement to the reader.
func comparePoints(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var lines []string
	for _, l := range strings.Split(string(raw), "\n") {
		if strings.TrimSpace(l) != "" {
			lines = append(lines, l)
		}
	}
	if len(lines) < 2 {
		return fmt.Errorf("%d recorded point(s); need two to compare (run `make bench-dsp` again)", len(lines))
	}
	var prev, last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &prev); err != nil {
		return fmt.Errorf("point %d: %v", len(lines)-1, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		return fmt.Errorf("point %d: %v", len(lines), err)
	}
	fmt.Printf("benchgate: %s point %d (%v) vs point %d (%v)\n",
		path, len(lines)-1, prev["date"], len(lines), last["date"])
	keys := map[string]bool{}
	for k := range prev {
		keys[k] = true
	}
	for k := range last {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		if k != "date" {
			sorted = append(sorted, k)
		}
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		a, aok := prev[k].(float64)
		b, bok := last[k].(float64)
		switch {
		case !aok && !bok:
			// String-valued metadata (the SIMD dispatch mode) diffs as
			// text; anything else non-numeric still gets a line — nothing
			// may vanish from the diff silently.
			as, asok := prev[k].(string)
			bs, bsok := last[k].(string)
			switch {
			case asok && bsok && as == bs:
				fmt.Printf("  %-55s %s (unchanged)\n", k, as)
			case asok && bsok:
				fmt.Printf("  %-55s %s -> %s\n", k, as, bs)
			case asok:
				fmt.Printf("  removed %-47s %s\n", k, as)
			case bsok:
				fmt.Printf("  added   %-47s %s\n", k, bs)
			default:
				fmt.Printf("  %-55s not numeric in either point\n", k)
			}
		case !aok:
			fmt.Printf("  added   %-47s %g\n", k, b)
		case !bok:
			fmt.Printf("  removed %-47s %g\n", k, a)
		case a == b:
			fmt.Printf("  %-55s %g (unchanged)\n", k, a)
		case a == 0:
			fmt.Printf("  %-55s 0 -> %g\n", k, b)
		default:
			fmt.Printf("  %-55s %g -> %g (%+.1f%%)\n", k, a, b, 100*(b/a-1))
		}
	}
	return nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}
