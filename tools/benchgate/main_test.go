package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	out := `simd-dispatch: avx2
goos: linux
BenchmarkFFT64-8             1000      250 ns/op      0 B/op   0 allocs/op
BenchmarkFFT64-8             1000      230 ns/op      0 B/op   0 allocs/op
BenchmarkSession/WiFi-8       100     1500 ns/op    512 B/op  12 allocs/op
BenchmarkSession/WiFi-8       100     1600 ns/op    512 B/op  11 allocs/op
BenchmarkCache-8              100      900 ns/op   0.75 hit-rate   40 lockwait-ns/op   3000 coalesced/s
BenchmarkCache-8              100      950 ns/op   0.50 hit-rate   30 lockwait-ns/op   4000 coalesced/s
BenchmarkNoMem-8              100       77 ns/op
simd-dispatch: avx2
PASS
`
	cur, extras, dispatch, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	wantCur := map[string]point{
		"FFT64":        {NsOp: 230, AllocsOp: 0},
		"Session_WiFi": {NsOp: 1500, AllocsOp: 11}, // each metric's minimum, not one run's
		"Cache":        {NsOp: 900, AllocsOp: 0},
		"NoMem":        {NsOp: 77, AllocsOp: 0}, // ran without -benchmem
	}
	if !reflect.DeepEqual(cur, wantCur) {
		t.Errorf("points %v, want %v", cur, wantCur)
	}
	// Cost-like extras fold to the minimum, rate-like ("/s") to the maximum.
	wantExtras := map[string]map[string]float64{
		"Cache": {"hit-rate": 0.50, "lockwait-ns_per_op": 30, "coalesced_per_s": 4000},
	}
	if !reflect.DeepEqual(extras, wantExtras) {
		t.Errorf("extras %v, want %v", extras, wantExtras)
	}
	if dispatch != "avx2" {
		t.Errorf("dispatch %q, want avx2", dispatch)
	}

	_, _, dispatch, err = parseBench(strings.NewReader("simd-dispatch: go\nsimd-dispatch: avx2\n"))
	if err != nil || dispatch != "avx2+go" {
		t.Errorf("mixed dispatch %q (err %v), want the sorted join avx2+go", dispatch, err)
	}
}

func TestSpeedScale(t *testing.T) {
	cases := []struct {
		name      string
		baseProbe float64
		probe     float64
		haveProbe bool
		scale     float64
		ok        bool
	}{
		{"machine 20% slower", 100, 120, true, 1.2, true},
		{"machine 2x faster", 100, 50, true, 0.5, true},
		{"baseline without probe", 0, 120, true, 1, true},
		{"baseline without probe, run without probe", 0, 0, false, 1, true},
		{"run lacks the baseline's probe", 100, 0, false, 0, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := &baseline{ProbeNsOp: c.baseProbe}
			scale, ok := speedScale(base, point{NsOp: c.probe}, c.haveProbe)
			if scale != c.scale || ok != c.ok {
				t.Errorf("speedScale = %g, %v; want %g, %v", scale, ok, c.scale, c.ok)
			}
		})
	}
}

func TestGate(t *testing.T) {
	base := &baseline{Recorded: "2026-01-01", Benchmarks: map[string]point{
		"A": {NsOp: 1000, AllocsOp: 10},
		"B": {NsOp: 1000, AllocsOp: 100},
	}}
	cases := []struct {
		name  string
		scale float64
		cur   map[string]point
		bad   bool
		want  string // a line the verdict must contain
	}{
		{"within budget", 1, map[string]point{"A": {1000, 10}, "B": {1000, 100}}, false, "OK — 2 benchmarks"},
		{"ns/op just under 1.15x", 1, map[string]point{"A": {1149, 10}, "B": {1000, 100}}, false, "OK"},
		{"ns/op just over 1.15x", 1, map[string]point{"A": {1151, 10}, "B": {1000, 100}}, true, "FAIL A: 1151 ns/op"},
		{"slow machine scales the budget", 1.2, map[string]point{"A": {1379, 10}, "B": {1200, 100}}, false, "OK"},
		{"over the scaled budget", 1.2, map[string]point{"A": {1381, 10}, "B": {1200, 100}}, true, "FAIL A"},
		{"fast machine shrinks the budget", 0.5, map[string]point{"A": {600, 10}, "B": {500, 100}}, true, "FAIL A: 600 ns/op"},
		{"allocs +2 on a small count", 1, map[string]point{"A": {1000, 12}, "B": {1000, 100}}, false, "OK"},
		{"allocs +3 on a small count", 1, map[string]point{"A": {1000, 13}, "B": {1000, 100}}, true, "FAIL A: 13 allocs/op vs baseline 10 (cap 12)"},
		{"allocs 1.05x on a large count", 1, map[string]point{"A": {1000, 10}, "B": {1000, 105}}, false, "OK"},
		{"allocs over 1.05x on a large count", 1, map[string]point{"A": {1000, 10}, "B": {1000, 106}}, true, "FAIL B: 106 allocs/op vs baseline 100 (cap 105)"},
		{"benchmark missing from the run", 1, map[string]point{"A": {1000, 10}}, true, "FAIL B: in baseline but absent from this run"},
		{"benchmark new in the run", 1, map[string]point{"A": {1000, 10}, "B": {1000, 100}, "C": {5, 0}}, false, "note: C not in baseline"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var names []string
			for name := range c.cur {
				names = append(names, name)
			}
			var out strings.Builder
			if bad := gate(&out, base, names, c.cur, c.scale); bad != c.bad {
				t.Errorf("gate = %v, want %v; output:\n%s", bad, c.bad, out.String())
			}
			if !strings.Contains(out.String(), c.want) {
				t.Errorf("output lacks %q:\n%s", c.want, out.String())
			}
		})
	}
}

func TestDispatchWarning(t *testing.T) {
	cases := []struct {
		base, run string
		warn      bool
	}{
		{"avx2", "go", true},
		{"go", "avx2", true},
		{"avx2", "avx2+go", true},
		{"avx2", "avx2", false},
		{"", "go", false},
		{"avx2", "", false},
	}
	for _, c := range cases {
		w := dispatchWarning(c.base, c.run)
		if (w != "") != c.warn {
			t.Errorf("dispatchWarning(%q, %q) = %q, want warning %v", c.base, c.run, w, c.warn)
		}
		if c.warn && !strings.Contains(w, `"`+c.run+`"`) {
			t.Errorf("warning %q does not name the run's dispatch %q", w, c.run)
		}
	}
}
