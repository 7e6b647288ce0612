package signal

import (
	"math"
	"math/rand"
	"testing"
)

// TestEnergyScreenSound drives EnergyScreen with windows whose prefix
// sums lose most of their precision: energies over 40 binades, and in
// every other trial a lead-in 10¹² times stronger than the windows after
// it, so a prefix difference can land above or below the window's own
// sum. At each position the screen must never rule out a quality just
// below the exact one (that position would win), and, where the prefix
// sums carry the window, must rule out one just above it, or it saves
// nothing.
func TestEnergyScreenSound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const tplLen = 64
	tight, loose := 0, 0
	for trial := 0; trial < 400; trial++ {
		n := tplLen + rng.Intn(400)
		e := make([]float64, n)
		scale := math.Ldexp(1, rng.Intn(400)-200)
		for i := range e {
			e[i] = scale * rng.ExpFloat64() * math.Ldexp(1, rng.Intn(40)-20)
		}
		leadIn := trial%2 == 1
		if leadIn {
			for i := range e[:n/2] {
				e[i] *= 1e12
			}
		}
		tplPow := 1 + 500*rng.Float64()
		s := NewEnergyScreen(n, tplPow)
		for _, v := range e[:tplLen-1] {
			s.Enter(v)
		}
		for i := 0; i+tplLen <= n; i++ {
			if i > 0 {
				s.Leave(e[i-1])
			}
			s.Enter(e[i+tplLen-1])
			var pw float64
			for _, v := range e[i : i+tplLen] {
				pw += v
			}
			num := rng.Float64() * math.Sqrt(pw*tplPow)
			q := num / math.Sqrt(pw*tplPow)
			if s.Beaten(num, math.Nextafter(q, 0)) {
				t.Fatalf("trial %d position %d: screen ruled out q = %v, which beats the best just below it", trial, i, q)
			}
			if !leadIn {
				if s.Beaten(num, q*(1+1e-9)) {
					tight++
				} else {
					loose++
				}
			}
		}
	}
	if tight < 100*loose {
		t.Fatalf("screen ruled out %d of %d positions whose quality is 1e-9 below the best", tight, tight+loose)
	}
}

// TestBeatenSquaredEdges pins where BeatenSquared must defer to the
// exact test: squared magnitudes that may have underflowed or are not
// finite, a best too small to square in the normal range, a subnormal
// bound, and Beaten's own prefix exclusions; and that it agrees with
// Beaten on an ordinary weak and an ordinary strong position.
func TestBeatenSquaredEdges(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		num2, trail, lead, best float64
		want                    bool
	}{
		{"weak position", 1e-6, 1, 9, 0.5, true},
		{"strong position", 4000, 1, 9, 0.5, false},
		{"zero correlation", 0, 1, 9, 0.5, false},
		{"underflowed square", 0x1p-970, 0x1p-600, 0x1p-590, 0.5, false},
		{"NaN", math.NaN(), 1, 9, 0.5, false},
		{"+Inf", math.Inf(1), 1, 9, 0.5, false},
		{"tiny best", 1e-300, 1, 9, 0x1p-510, false},
		{"no best yet", 1e-6, 1, 9, 0, false},
		{"non-finite prefix", 1e-6, 1, math.Inf(1), 0.5, false},
		{"tiny prefix", 0x1p-950, 0, 0x1p-950, 0.5, false},
		{"cancelled difference", 1e-6, 1e300, 1e300, 0.5, false},
	} {
		s := NewEnergyScreen(1000, 500)
		s.trail, s.lead = tc.trail, tc.lead
		if got := s.BeatenSquared(tc.num2, tc.best); got != tc.want {
			t.Errorf("%s: BeatenSquared = %v, want %v", tc.name, got, tc.want)
		}
		if got := s.BeatenSquared(tc.num2, tc.best); got && !s.Beaten(math.Sqrt(tc.num2), tc.best) {
			t.Errorf("%s: BeatenSquared rejects what Beaten keeps", tc.name)
		}
	}
	faint := NewEnergyScreen(1000, 0x1p-200)
	faint.lead = 0x1p-899
	if faint.BeatenSquared(0x1p-960, 0x1p200) {
		t.Error("a subnormal bound was trusted")
	}
}

// TestEnergyScreenEdges pins the cases where the screen must defer to
// the exact sum, the sign shortcut and the zero-window count.
func TestEnergyScreenEdges(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		num, trail, lead, best float64
		want                   bool
	}{
		{"negative correlation", -3, 1, 9, 0, true},
		{"zero correlation", 0, 1, 9, 0, true},
		{"weak position", 1e-3, 1, 9, 0.5, true},
		{"NaN correlation", math.NaN(), 1, 9, 0.5, false},
		{"-Inf correlation", math.Inf(-1), 1, 9, 0.5, false},
		{"+Inf correlation", math.Inf(1), 1, 9, 0.5, false},
		{"non-finite prefix", 1e-3, 1, math.Inf(1), 0.5, false},
		{"NaN prefix", 1e-3, math.NaN(), math.NaN(), 0.5, false},
		{"tiny prefix", 0x1p-1000, 0, 0x1p-950, 0.5, false},
		{"cancelled difference", 1e-3, 1e300, 1e300, 0.5, false},
		{"no best yet", 1e-3, 1, 9, 0, false},
	} {
		s := NewEnergyScreen(1000, 500)
		s.trail, s.lead = tc.trail, tc.lead
		if got := s.Beaten(tc.num, tc.best); got != tc.want {
			t.Errorf("%s: Beaten = %v, want %v", tc.name, got, tc.want)
		}
	}
	long := NewEnergyScreen(1<<50, 500)
	long.trail, long.lead = 1, 9
	if long.Beaten(1e-3, 0.5) {
		t.Error("a scan too long for the bound was screened")
	}
	s := NewEnergyScreen(10, 1)
	for _, e := range []float64{0, 1e-300 * 1e-300, math.NaN(), 0} {
		s.Enter(e)
	}
	if s.Empty() {
		t.Error("a window holding a NaN energy reads empty")
	}
	s.Leave(0)
	s.Leave(0)
	s.Leave(math.NaN())
	if !s.Empty() {
		t.Error("a window of zero energies reads nonempty")
	}
}
