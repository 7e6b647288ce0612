package experiments

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestSpanReport runs a sweep on a collector and checks its report: the
// point count, the packets and samples its points added, the pool width
// and the derived rates.
func TestSpanReport(t *testing.T) {
	opt := Options{Workers: 4, Obs: &Collector{}}
	_, err := sweep(opt, "fig10", 12, func(i int, sp *span) (int, error) {
		sp.packets.Add(4)
		sp.samples.Add(1 << 16)
		time.Sleep(time.Millisecond)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := opt.Obs.Reports()
	if len(got) != 1 {
		t.Fatalf("collector reports %+v", got)
	}
	r := got[0]
	if r.Name != "fig10" || r.Packets != 48 || r.Points != 12 || r.Samples != 12<<16 {
		t.Fatalf("report %+v", r)
	}
	if r.Workers != 4 {
		t.Fatalf("workers %d, want 4", r.Workers)
	}
	if r.WallSeconds <= 0 || r.PointsPerSecond <= 0 || r.BusySeconds <= 0 {
		t.Fatalf("derived metrics missing: %+v", r)
	}
	if r.Utilisation <= 0 || r.Utilisation > 1 {
		t.Fatalf("utilisation %g outside (0,1]", r.Utilisation)
	}
	if !strings.Contains(r.String(), "fig10: ") || !strings.Contains(r.String(), "48 packets") {
		t.Fatalf("String() = %q", r.String())
	}
}

// TestNilCollectorDiscards: experiments run with no collector attached
// record nothing, and a failing sweep still files its report.
func TestNilCollectorDiscards(t *testing.T) {
	var c *Collector
	sp := c.start("x")
	sp.packets.Add(1)
	sp.end()
	if c.Reports() != nil {
		t.Fatal("nil collector returned reports")
	}

	opt := Options{Workers: 1, Obs: &Collector{}}
	boom := errors.New("boom")
	if _, err := sweep(opt, "fails", 3, func(i int, _ *span) (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("sweep error %v, want %v", err, boom)
	}
	if got := opt.Obs.Reports(); len(got) != 1 || got[0].Name != "fails" || got[0].Points != 3 {
		t.Fatalf("failed sweep reports %+v", got)
	}
}

// TestSpanConcurrentCounters: pool workers add to one span concurrently
// without losing updates.
func TestSpanConcurrentCounters(t *testing.T) {
	opt := Options{Workers: 8, Obs: &Collector{}}
	_, err := sweep(opt, "race", 8000, func(i int, sp *span) (struct{}, error) {
		sp.packets.Add(1)
		sp.samples.Add(2)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := opt.Obs.Reports()[0]; r.Packets != 8000 || r.Samples != 16000 || r.Points != 8000 {
		t.Fatalf("lost updates: %+v", r)
	}
}
