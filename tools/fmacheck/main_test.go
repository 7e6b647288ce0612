package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestCountSites(t *testing.T) {
	out := "# repro/internal/tag\n" +
		"repro/internal/tag.DetectEnvelope STEXT size=576 args=0x8 locals=0x98 funcid=0x0 align=0x0\n" +
		"\t0x0000 00000 (/x/tag/envelope.go:30)\tTEXT\trepro/internal/tag.DetectEnvelope(SB), ABIInternal, $160-8\n" +
		"\t0x00dc 00220 (/x/tag/envelope.go:39)\tFMADDD\tF4, F1, F4, F1\n" +
		"\t0x00e4 00228 (/x/tag/envelope.go:40)\tFMADDD\tF1, F0, F2, F0\n" +
		"\t0x00e8 00232 (/x/tag/envelope.go:40)\tFMULD\tF1, F0, F2\n" +
		"\t0x00ec 00236 (/x/tag/envelope.go:41)\tFNMSUBS\tF1, F0, F2, F0\n" +
		"\t0x00f0 00240 (/x/tag/envelope.go:41)\tPCDATA\t$0, $-1\n" +
		"repro/internal/tag.(*PhaseTranslator).Translate STEXT size=336 args=0x28 locals=0x58 funcid=0x0 align=0x0\n" +
		"\t0x0010 00016 (/x/tag/phase.go:12)\tFMSUBD\tF1, F0, F2, F0\n" +
		"repro/internal/tag.Quiet STEXT size=16 args=0x0 locals=0x0 funcid=0x0 align=0x0\n" +
		"\t0x0000 00000 (/x/tag/quiet.go:3)\tRET\t(R30)\n" +
		"\t0x0000 3f 20 03 d5 c0 03 5f d6  ?.....\n"
	got, err := countSites(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"repro/internal/tag.DetectEnvelope":               3,
		"repro/internal/tag.(*PhaseTranslator).Translate": 1,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("counts %v, want %v", got, want)
	}
	if _, err := countSites(strings.NewReader("\t0x0 0 (a.go:1)\tFMADDD\tF1, F0, F2, F0\n")); err == nil {
		t.Error("a fused instruction before any function header parsed")
	}
}

func TestCompare(t *testing.T) {
	list := map[string]int{"p.A": 3, "p.B": 2, "p.Gone": 1}
	cases := []struct {
		name        string
		got         map[string]int
		bad, shrunk int
	}{
		{"same", map[string]int{"p.A": 3, "p.B": 2, "p.Gone": 1}, 0, 0},
		{"grown", map[string]int{"p.A": 4, "p.B": 2, "p.Gone": 1}, 1, 0},
		{"new function", map[string]int{"p.A": 3, "p.B": 2, "p.Gone": 1, "p.New": 1}, 1, 0},
		{"shrunk and removed", map[string]int{"p.A": 2, "p.B": 2}, 0, 2},
		{"grown and shrunk", map[string]int{"p.A": 1, "p.B": 5, "p.Gone": 1}, 1, 1},
	}
	for _, c := range cases {
		bad, shrunk := compare(c.got, list)
		if len(bad) != c.bad || len(shrunk) != c.shrunk {
			t.Errorf("%s: %d failures %v and %d notices %v, want %d and %d", c.name, len(bad), bad, len(shrunk), shrunk, c.bad, c.shrunk)
		}
	}
}

func TestListRoundTrip(t *testing.T) {
	counts := map[string]int{"repro/internal/wifi.(*phaseTracker).correct": 4, "repro/internal/signal.Derotate": 2}
	var b strings.Builder
	if err := writeList(&b, counts); err != nil {
		t.Fatal(err)
	}
	got, err := readList(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, counts) {
		t.Errorf("round trip %v, want %v", got, counts)
	}
	for _, bad := range []string{"x p.A\n", "0 p.A\n", "3\n"} {
		if _, err := readList(strings.NewReader(bad)); err == nil {
			t.Errorf("list %q parsed", bad)
		}
	}
}
