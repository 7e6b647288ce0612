package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
)

// meteredRun runs one registry entry at quick effort and returns its rows
// as JSON plus the span reports it recorded, with the timing fields (wall,
// busy, rates) dropped: those are the only parts allowed to vary.
func meteredRun(t *testing.T, e Experiment, opt Options) ([]byte, []obs.Report) {
	t.Helper()
	opt.Obs = obs.NewCollector()
	res, err := e.Run(opt, false)
	if err != nil {
		t.Fatalf("%s: %v", e.Name, err)
	}
	rows, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("%s: marshal rows: %v", e.Name, err)
	}
	var reps []obs.Report
	for _, r := range opt.Obs.Reports() {
		reps = append(reps, obs.Report{Name: r.Name, Points: r.Points, Packets: r.Packets, Samples: r.Samples})
	}
	return rows, reps
}

// TestRegistryWorkerCountInvariant pins DESIGN §5's determinism claim per
// experiment: every registry entry gives identical rows and identical
// point/packet/sample counters on one worker and on three.
func TestRegistryWorkerCountInvariant(t *testing.T) {
	for _, e := range Registry {
		t.Run(e.Name, func(t *testing.T) {
			if raceEnabled && (e.Name == "snr" || e.Name == "snr-single") {
				t.Skip("long SNR sweep under the race detector")
			}
			opt := QuickOptions()
			opt.Workers = 1
			rows1, reps1 := meteredRun(t, e, opt)
			opt.Workers = 3
			rows3, reps3 := meteredRun(t, e, opt)
			if !bytes.Equal(rows1, rows3) {
				t.Errorf("rows differ between 1 and 3 workers:\n%s\n%s", rows1, rows3)
			}
			if len(reps1) != len(reps3) {
				t.Fatalf("span count %d on 1 worker, %d on 3", len(reps1), len(reps3))
			}
			for i := range reps1 {
				if reps1[i] != reps3[i] {
					t.Errorf("span %d: %+v on 1 worker, %+v on 3", i, reps1[i], reps3[i])
				}
			}
		})
	}
}

// TestSessionExperimentsHonourFaults checks that Options.Faults reaches
// the link sessions of the studies that build their own sessions: a
// profile that blacks out every packet must change their rows.
func TestSessionExperimentsHonourFaults(t *testing.T) {
	outage, err := faults.Parse("outage:period=1,len=1")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"redundancy", "quaternary", "cfo", "pilots", "collision"} {
		t.Run(name, func(t *testing.T) {
			e, ok := Lookup(name)
			if !ok {
				t.Fatalf("%s not in the registry", name)
			}
			clean, _ := meteredRun(t, e, QuickOptions())
			opt := QuickOptions()
			opt.Faults = outage
			faulted, _ := meteredRun(t, e, opt)
			if bytes.Equal(clean, faulted) {
				t.Errorf("rows unchanged under %v: %s", outage, faulted)
			}
		})
	}
}
