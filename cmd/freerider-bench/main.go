// Command freerider-bench regenerates the paper's evaluation: every table
// and figure of §4 plus the §3 design studies and this reproduction's
// extension experiments. Each subcommand prints the rows/series the
// corresponding figure plots (or JSON with -json), followed by the
// experiment's run metrics (wall time, packets and samples processed,
// worker-pool utilisation).
//
// Usage:
//
//	freerider-bench [-quick] [-seed N] [-workers N] [-json] [-faults SPEC]
//	                [-cpuprofile FILE] [-memprofile FILE] <experiment|all>...
//
// The experiments are internal/experiments.Registry (the set the HTTP
// service also serves) plus the CLI-only waterfall, table1 and soak; run
// without arguments to list them. "all" runs every one in that order;
// several names run in the order given.
//
// -faults attaches a fault-injection profile (a preset like "bursty-wifi"
// or "chaos", optionally "@0.5" intensity-scaled, or a custom
// "burst:p01=0.1,p10=0.3,loss=12;..." spec) to every link the experiments
// build. The soak experiment sweeps the profile's intensity across all
// three radios, asserts the robustness invariants, and pushes a quaternary
// Send transfer through the faulted link, reporting how the graceful-
// degradation machinery coped.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	freerider "repro"

	"repro/internal/core"
	"repro/internal/decoder"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/fec"
)

// cliOnly lists the experiments the HTTP service does not serve: the
// long-running native waterfalls and chaos soak, and the Table 1 logic.
var cliOnly = []experiments.Experiment{
	{Name: "waterfall", Title: "PHY sensitivity waterfalls (native links)", Run: runWaterfall},
	{Name: "table1", Title: "Table 1 — codeword translation logic", Run: table1},
	{Name: "soak", Title: "chaos soak — fault-intensity sweep + degraded transfer", Run: runSoak},
}

// result is one experiment's output: a title plus its data rows and run
// metrics.
type result struct {
	Title   string               `json:"title"`
	Rows    any                  `json:"rows"`
	Metrics []experiments.Report `json:"metrics,omitempty"`
}

func main() {
	quick := flag.Bool("quick", false, "reduced sample counts for a fast pass")
	seed := flag.Int64("seed", 1, "RNG seed for every experiment")
	workers := flag.Int("workers", 0, "worker-pool size (0 = all cores); results do not depend on it")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of text")
	faultSpec := flag.String("faults", "none",
		"fault profile for every link ("+strings.Join(faults.Names(), ", ")+", spec@intensity, or custom)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}

	// Subcommand flags: flag.Parse stops at the first positional argument,
	// so the snr sweep's options ride after its name and are parsed by its
	// own FlagSet; any names after them run too.
	snrFlags := flag.NewFlagSet("snr", flag.ExitOnError)
	snrCoded := snrFlags.Bool("coded", false, "pair the sweep with an RS-coded run and report the dB link-margin gain at BER 1e-3")
	snrN := snrFlags.Int("code-n", 15, "RS codeword length n (with -coded)")
	snrK := snrFlags.Int("code-k", 9, "RS data symbols k (with -coded)")
	snrInterleave := snrFlags.Int("interleave", 1, "RS interleave depth (with -coded)")
	snrRetx := snrFlags.Int("retx", 4, "retransmission budget for the retransmitted coded arm (with -coded; <2 disables)")
	names := flag.Args()
	if names[0] == "snr" {
		if err := snrFlags.Parse(names[1:]); err != nil {
			os.Exit(2)
		}
		names = append([]string{"snr"}, snrFlags.Args()...)
	}

	profile, err := faults.Parse(*faultSpec)
	if err != nil {
		fatal(err)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	opt := experiments.QuickOptions()
	if !*quick {
		opt = experiments.DefaultOptions()
	}
	opt.Seed = *seed
	opt.Workers = *workers
	opt.Faults = profile
	collector := &experiments.Collector{}
	opt.Obs = collector

	catalogue := slices.Concat(experiments.Registry, cliOnly)
	byName := func(name string) int {
		return slices.IndexFunc(catalogue, func(e experiments.Experiment) bool { return e.Name == name })
	}
	if *snrCoded {
		code := fec.Config{N: *snrN, K: *snrK, Interleave: *snrInterleave}
		catalogue[byName("snr")] = experiments.Experiment{Name: "snr",
			Title: "BER vs SNR — coded vs uncoded uplink (RS link-margin study)",
			Run: func(opt experiments.Options, _ bool) (any, error) {
				return experiments.CodedBERvsSNR(opt, &code, *snrRetx)
			}}
	}
	var selected []experiments.Experiment
	for _, name := range names {
		if name == "all" {
			selected = append(selected, catalogue...)
			continue
		}
		i := byName(name)
		if i < 0 {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			usage()
			os.Exit(2)
		}
		selected = append(selected, catalogue[i])
	}

	suiteStart := time.Now()
	soakFailed := false
	var jsonOut []result
	for _, exp := range selected {
		seen := len(collector.Reports())
		rows, err := exp.Run(opt, !*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", exp.Name, err)
			os.Exit(1)
		}
		if soak, ok := rows.(soakRows); ok && len(soak.Soak.Violations) > 0 {
			soakFailed = true
		}
		res := result{Title: exp.Title, Rows: rows, Metrics: collector.Reports()[seen:]}
		if *asJSON {
			jsonOut = append(jsonOut, res)
			continue
		}
		printText(res)
		fmt.Println()
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonOut); err != nil {
			fatal(err)
		}
	} else if len(selected) > 1 {
		fmt.Printf("suite: %d experiments in %.2fs\n", len(selected), time.Since(suiteStart).Seconds())
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
	if soakFailed {
		fmt.Fprintln(os.Stderr, "soak: invariant violations (see above)")
		os.Exit(1)
	}
}

// printText renders a result: its title, the text of its rows, then the
// run metrics.
func printText(r result) {
	fmt.Println(r.Title)
	for _, l := range rowLines(r.Rows) {
		fmt.Println("  " + l)
	}
	for _, m := range r.Metrics {
		fmt.Println("  # " + m.String())
	}
}

// rowLines renders rows as text lines: a fmt.Stringer by its String, a
// slice element by element, anything else in Go syntax.
func rowLines(rows any) []string {
	if s, ok := rows.(fmt.Stringer); ok {
		return strings.Split(s.String(), "\n")
	}
	v := reflect.ValueOf(rows)
	if v.Kind() != reflect.Slice {
		return []string{fmt.Sprintf("%+v", rows)}
	}
	var lines []string
	for i := 0; i < v.Len(); i++ {
		lines = append(lines, rowLines(v.Index(i).Interface())...)
	}
	return lines
}

// radioCurve is one radio's waterfall.
type radioCurve struct {
	Radio  string                       `json:"radio"`
	Points []experiments.WaterfallPoint `json:"points"`
}

func (c radioCurve) String() string {
	lines := []string{c.Radio + ":"}
	for _, p := range c.Points {
		lines = append(lines, "  "+p.String())
	}
	return strings.Join(lines, "\n")
}

// runWaterfall measures each radio's native PHY sensitivity curve.
func runWaterfall(opt experiments.Options, full bool) (any, error) {
	frames := 6
	if full {
		frames = 20
	}
	var rows []radioCurve
	for _, radio := range []core.Radio{core.WiFi, core.ZigBee, core.Bluetooth} {
		pts, err := experiments.Waterfall(radio, []float64{-4, -2, 0, 2, 4, 6, 8, 12}, frames, opt)
		if err != nil {
			return nil, err
		}
		rows = append(rows, radioCurve{Radio: radio.String(), Points: pts})
	}
	return rows, nil
}

// table1Row is one line of Table 1: the tag bit a decoded/excitation
// codeword pair yields.
type table1Row struct {
	Decoded    string `json:"decoded"`
	Excitation string `json:"excitation"`
	TagBit     byte   `json:"tag_bit"`
}

type table1Rows []table1Row

func (t table1Rows) String() string {
	lines := []string{"decoded  excitation  tag-bit"}
	for _, r := range t {
		lines = append(lines, fmt.Sprintf("   %s        %s         %d", r.Decoded, r.Excitation, r.TagBit))
	}
	return strings.Join(lines, "\n")
}

// table1 evaluates the codeword translation logic of Table 1.
func table1(experiments.Options, bool) (any, error) {
	var rows table1Rows
	for _, c := range [][2]byte{{2, 1}, {1, 2}, {1, 1}, {2, 2}} {
		rows = append(rows, table1Row{
			Decoded:    fmt.Sprintf("C%d", c[0]),
			Excitation: fmt.Sprintf("C%d", c[1]),
			TagBit:     decoder.XORDecode(c[1], c[0]),
		})
	}
	return rows, nil
}

// soakRows is the soak experiment's output: the intensity sweep and the
// degraded transfer pushed through the faulted link.
type soakRows struct {
	Soak         experiments.SoakResult      `json:"soak"`
	Transfer     freerider.DegradationReport `json:"transfer"`
	payloadBytes int
}

func (r soakRows) String() string {
	lines := []string{"profile: " + r.Soak.Profile}
	for _, c := range r.Soak.Cells {
		lines = append(lines, c.String())
	}
	rep := r.Transfer
	lines = append(lines,
		fmt.Sprintf("transfer: %d B quaternary WiFi at 4 m under %s", r.payloadBytes, r.Soak.Profile),
		fmt.Sprintf("  chunks=%d packets=%d retransmissions=%d corrupt=%d faulted-losses=%d",
			rep.Chunks, rep.Packets, rep.Retransmissions, rep.CorruptPackets, rep.FaultedLosses),
		fmt.Sprintf("  backoff=%d slots (%.1f ms)  fallbacks=%d recoveries=%d final-quaternary=%v degraded=%v",
			rep.BackoffSlots, rep.BackoffSeconds*1e3, rep.Fallbacks, rep.Recoveries,
			rep.FinalQuaternary, rep.Degraded()))
	for _, v := range r.Soak.Violations {
		lines = append(lines, "VIOLATION: "+v)
	}
	if len(r.Soak.Violations) == 0 {
		lines = append(lines, "invariants: PASS (no panics, worker-count bit-identity, residual monotone)")
	}
	return strings.Join(lines, "\n")
}

// runSoak sweeps the -faults profile's intensity (full chaos when none is
// given), then pushes a real payload through the faulted link with the
// graceful-degradation machinery engaged end to end. A failed transfer is
// recorded as a violation.
func runSoak(opt experiments.Options, full bool) (any, error) {
	profile := opt.Faults
	if profile == nil {
		var err error
		if profile, err = faults.Parse("chaos"); err != nil {
			return nil, err
		}
	}
	res, err := experiments.Soak(profile, opt)
	if err != nil {
		return nil, err
	}
	payloadBytes := 512
	if full {
		payloadBytes = 4096
	}
	payload := make([]byte, payloadBytes*8)
	for i := range payload {
		payload[i] = byte(i % 2)
	}
	sendOpts := freerider.DefaultSendOptions()
	// Soak-sized attempt budget: full chaos stacks multi-slot excitation
	// outages on brownout charge cycles, so roughly every other slot loses
	// or corrupts a packet. 12 attempts of exponential backoff span ~200
	// fault-timeline slots — enough to decorrelate from any of the chaos
	// preset's periodicities.
	sendOpts.Attempts = 12
	sendOpts.Quaternary = true
	sendOpts.Faults = profile
	out, rep, sendErr := freerider.SendDetailed(freerider.WiFi, 4, payload, opt.Seed, sendOpts)
	if sendErr != nil {
		res.Violations = append(res.Violations, "transfer failed: "+sendErr.Error())
	} else if len(out) != len(payload) {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"transfer returned %d of %d bits", len(out), len(payload)))
	}
	return soakRows{Soak: res, Transfer: rep, payloadBytes: payloadBytes}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: freerider-bench [-quick] [-seed N] [-workers N] [-json] [-faults SPEC] [-cpuprofile FILE] [-memprofile FILE] <experiment|all>... [snr flags]
experiments:`)
	for _, e := range slices.Concat(experiments.Registry, cliOnly) {
		fmt.Fprintf(os.Stderr, "  %-11s %s\n", e.Name, e.Title)
	}
	fmt.Fprintln(os.Stderr, `  all         everything above
snr -coded [-code-n N -code-k K -interleave D -retx R] pairs the snr sweep
with an RS-coded sweep on the dense transition-band grid and reports the dB
margin gain at BER 1e-3; -retx adds the coded uplink at a retransmission
budget of R (default 4), each copy RS-decoded alone.
flags: -workers bounds the deterministic worker pool (results never depend
on it); -faults attaches a fault profile (preset name, name@intensity, or
"burst:p01=...;outage:period=...;..." spec) to every link — soak defaults
to "chaos" when none is given; -cpuprofile/-memprofile write pprof
profiles; -json includes each experiment's run metrics under "metrics".`)
}
