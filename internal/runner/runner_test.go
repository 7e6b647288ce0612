package runner

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestDeriveSeedDistinctDomains(t *testing.T) {
	// The bug this replaces: linkSweep used base+i*1000 and the regime
	// experiment base+txIdx*100+j, so both drew base+0 for their first
	// point. Derived seeds must differ across domains and indices.
	seen := map[int64]string{}
	for _, domain := range []string{"links.fig10", "links.fig11", "links.fig14", "core.packet", "waterfall"} {
		for i := 0; i < 200; i++ {
			s := DeriveSeed(1, domain, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: (%s,%d) == %s", domain, i, prev)
			}
			seen[s] = fmt.Sprintf("(%s,%d)", domain, i)
		}
	}
}

func TestDeriveSeedMultiIndexAndBase(t *testing.T) {
	if DeriveSeed(1, "x", 1, 2) == DeriveSeed(1, "x", 2, 1) {
		t.Error("index order ignored")
	}
	if DeriveSeed(1, "x", 3) == DeriveSeed(2, "x", 3) {
		t.Error("base seed ignored")
	}
	if DeriveSeed(1, "x") != DeriveSeed(1, "x") {
		t.Error("not deterministic")
	}
	if DeriveSeed(1, "ab", 1) == DeriveSeed(1, "a", 1) {
		t.Error("domain boundary aliases")
	}
}

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		out := make([]int, 50)
		_, err := Map(len(out), workers, func(i int) error {
			out[i] = i * i
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d]=%d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapFirstErrorByIndex(t *testing.T) {
	// Whatever the scheduling, the reported error must be the lowest
	// failing index — what a serial loop would have returned.
	for _, workers := range []int{1, 3, 16} {
		_, err := Map(40, workers, func(i int) error {
			if i == 7 || i == 31 {
				return fmt.Errorf("job %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 7 failed" {
			t.Fatalf("workers=%d: err=%v, want job 7 failed", workers, err)
		}
	}
}

func TestMapRunsEveryJobDespiteErrors(t *testing.T) {
	var ran atomic.Int64
	_, err := Map(20, 4, func(i int) error {
		ran.Add(1)
		if i%2 == 0 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if ran.Load() != 20 {
		t.Fatalf("ran %d jobs, want all 20", ran.Load())
	}
}

func TestMapEdgeCases(t *testing.T) {
	if _, err := Map(0, 4, func(int) error { return errors.New("never") }); err != nil {
		t.Fatalf("empty map: %v", err)
	}
	if _, err := Map(-1, 4, func(int) error { return nil }); err == nil {
		t.Fatal("negative job count accepted")
	}
	// workers <= 0 falls back to all cores.
	st, err := Map(3, 0, func(int) error { return nil })
	if err != nil || st.Workers < 1 {
		t.Fatalf("workers<=0: %+v, %v", st, err)
	}
}

func TestMapPoolStats(t *testing.T) {
	st, err := Map(8, 2, func(int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 2 {
		t.Fatalf("stats %+v", st)
	}
	if st.Busy < 0 {
		t.Fatalf("negative busy time %v", st.Busy)
	}
	// Workers are clamped to the job count.
	st, err = Map(2, 16, func(int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 2 {
		t.Fatalf("workers %d, want clamp to 2", st.Workers)
	}
}
