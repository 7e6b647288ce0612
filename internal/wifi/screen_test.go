package wifi

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/signal"
	"repro/internal/simd"
)

// corr64 correlates x against a template supplied in conjugated form
// (cref[i] = conj(ref[i])), returning the correlation and the energy of
// x's first len(cref) samples. It is the per-position arithmetic of the
// reference scan below.
func corr64(x []complex128, cref []complex128) (complex128, float64) {
	if len(x) < len(cref) {
		return 0, 0
	}
	x = x[:len(cref):len(cref)]
	var accR, accI, pow float64
	for i, c := range cref {
		v := x[i]
		vr, vi := real(v), imag(v)
		cr, ci := real(c), imag(c)
		accR += vr*cr - vi*ci
		accI += vr*ci + vi*cr
		pow += vr*vr + vi*vi
	}
	return complex(accR, accI), pow
}

// refDetectTiming is the scan detectTiming must reproduce: one position
// at a time, both LTF copies' correlations and energies summed from the
// position's own samples, with detectTiming's gates and its early stop
// tested before any work on a position.
func refDetectTiming(cap *signal.Signal) (int, float64) {
	templateOnce.Do(initTemplates)
	lt := ltfConjTmpl
	ltPow := ltfTmplPower
	n := len(cap.Samples)
	best, bestQ := -1, 0.0
	for i := 0; i+PreambleLen+SymbolLen <= n; i++ {
		if bestQ > 0.5 && i > best+SymbolLen {
			break
		}
		p := i + 192
		c1, p1 := corr64(cap.Samples[p:], lt)
		if p1 == 0 {
			continue
		}
		q1 := cmplx.Abs(c1) / math.Sqrt(p1*ltPow)
		if q1 < 0.5 {
			continue
		}
		c2, p2 := corr64(cap.Samples[p+FFTSize:], lt)
		if p2 == 0 {
			continue
		}
		q2 := cmplx.Abs(c2) / math.Sqrt(p2*ltPow)
		q := (q1 + q2) / 2
		if q > bestQ {
			best, bestQ = i, q
		}
	}
	return best, bestQ
}

// requireTimingMatchesRef fails unless detectTiming returns
// refDetectTiming's start and quality on x in every dispatch mode the
// build has, both on x whole and on x computed on demand
// (requireOnDemandMatches).
func requireTimingMatchesRef(t *testing.T, x []complex128) {
	t.Helper()
	cap := &signal.Signal{Rate: SampleRate, Samples: x}
	ws, wq := refDetectTiming(cap)
	prev := simd.Enabled()
	defer simd.SetEnabled(prev)
	for _, on := range []bool{false, true} {
		if simd.SetEnabled(on); on && !simd.Enabled() {
			break
		}
		if s, q := NewReceiver().detectTiming(cap, func(int) {}); s != ws || !sameFloat(q, wq) {
			t.Fatalf("%d samples (%s): detectTiming (%d, %v), reference (%d, %v)",
				len(x), simd.Mode(), s, q, ws, wq)
		}
		requireOnDemandMatches(t, x, ws, wq)
	}
}

// requireOnDemandMatches fails unless detectTiming, scanning a
// NaN-poisoned copy of x whose fill reveals x's samples only as far as
// it is asked, returns (ws, wq), the reference's answer on all of x,
// and has asked for every sample the answer's periodicity score reads.
// The scan reads no further than its last fill (a read past it panics),
// so an answer that needed a sample the scan had not asked for would
// rest on a NaN and differ from the reference.
func requireOnDemandMatches(t *testing.T, x []complex128, ws int, wq float64) {
	t.Helper()
	cap := &signal.Signal{Rate: SampleRate, Samples: make([]complex128, len(x))}
	for i := range cap.Samples {
		cap.Samples[i] = cmplx.NaN()
	}
	filled := 0
	fill := func(n int) {
		n = min(n, len(x))
		if n > filled {
			copy(cap.Samples[filled:n], x[filled:n])
			filled = n
		}
	}
	s, q := NewReceiver().detectTiming(cap, fill)
	if s != ws || !sameFloat(q, wq) {
		t.Fatalf("%d samples on demand (%s, %d filled): detectTiming (%d, %v), reference (%d, %v)",
			len(x), simd.Mode(), filled, s, q, ws, wq)
	}
	if s >= 0 && filled < s+PreambleLen {
		t.Fatalf("%d samples on demand (%s): preamble at %d scored with %d filled", len(x), simd.Mode(), s, filled)
	}
}

// TestDetectTimingMatchesReferenceScan checks detectTiming against
// refDetectTiming in both dispatch modes: on packets in noise (clean,
// weak enough that q1 nears its 0.5 gate, near-silent, two in one
// capture, one shorter than 2048 scan positions), on noise alone, on
// captures built to trip the energy screen — windows of zero energy
// (all zeros, zero runs, samples whose energy underflows), exact ties
// (a constant capture), prefix sums that cancel (a 1e150 lead-in before
// 1e-150 samples), a single ±Inf or NaN sample — each from the start
// and from offsets inside it, and on preambles overlapped 81–83 samples
// apart, where the second can beat the first one position past the
// early stop.
func TestDetectTimingMatchesReferenceScan(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	psdu := make([]byte, 80)
	rng.Read(psdu)
	sig, err := NewTransmitter().Transmit(psdu, Rates[12])
	if err != nil {
		t.Fatal(err)
	}
	pkt := sig.Samples
	n := len(pkt)
	noisy := func(n int, scale float64) []complex128 {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * complex(scale, 0)
		}
		return x
	}
	with := func(x []complex128, at int, s []complex128, scale float64) []complex128 {
		for i, v := range s {
			x[at+i] += v * complex(scale, 0)
		}
		return x
	}
	cases := map[string][]complex128{
		"clean":       with(noisy(400+n+400, 0.01), 400, pkt, 1),
		"near-silent": with(noisy(400+n+400, 1e-12), 400, pkt, 1e-9),
		"short":       with(noisy(1500, 0.05), 100, pkt[:1200], 1),
		"noise only":  noisy(6000, 0.3),
		"zeros":       make([]complex128, 6000),
		"constant":    make([]complex128, 2500),
		"underflow":   with(make([]complex128, 1500+n), 1500, pkt, 1e-170),
	}
	for _, scale := range []float64{0.15, 0.18, 0.2, 0.3} {
		cases[fmt.Sprintf("weak %v", scale)] = with(noisy(3000+n+3000, 0.2), 3000, pkt, scale)
	}
	for i := range cases["constant"] {
		cases["constant"][i] = complex(0.5, -0.25)
	}
	// A weaker packet and a stronger one after it: the scan must stop
	// after the first, as the reference does.
	two := with(noisy(400+n+n+400, 0.05), 400, pkt, 0.6)
	cases["two packets"] = with(two, 400+n, pkt, 1)
	runs := with(noisy(4000+n, 0.05), 4000, pkt, 1)
	clear(runs[300:1900])
	clear(runs[2500:2700])
	cases["zero runs"] = runs
	cancel := with(noisy(1500+n+300, 1e-151), 1500, pkt, 1e-150)
	for i := range cancel[:1500] {
		cancel[i] = complex(1e150, -1e150)
	}
	cases["cancellation"] = cancel
	for name, v := range map[string]complex128{
		"+Inf": complex(math.Inf(1), 0), "-Inf": complex(0, math.Inf(-1)), "NaN": complex(math.NaN(), 0),
	} {
		x := with(noisy(2000+n, 0.05), 2000, pkt, 1)
		x[700] = v
		cases[name] = x
	}
	for name, x := range cases {
		t.Run(name, func(t *testing.T) {
			for _, from := range []int{0, 1, 100, 699, 701, len(x) / 2, len(x) - PreambleLen - SymbolLen - 3, len(x)} {
				requireTimingMatchesRef(t, x[from:])
			}
		})
	}
	t.Run("overlapping preambles", func(t *testing.T) {
		for k := range 300 {
			lead, gap := 100+k%40, 81+k%3
			x := with(noisy(lead+gap+PreambleLen+SymbolLen+100, 0.3), lead, pkt[:PreambleLen], 1)
			requireTimingMatchesRef(t, with(x, lead+gap, pkt[:PreambleLen+SymbolLen], 1))
		}
	})
}

// TestSquaredScreenIsAProof drives EnergyScreen.BeatenSquared at
// detectTiming's gate with adversarial (re, im, p1): window energies
// spanning magnitudes from 2⁻⁴⁵⁰ to 2⁴⁵⁰ per sample (with an underflowing
// and a dominant sample among them), correlations on, just inside and
// just outside q1 = 0.5 by 0 to 2⁻¹⁶ relative at angles including the
// axes, and subnormal, zero, huge, infinite and NaN correlations. Each
// position it rejects must be one the exact test rejects: q1 < 0.5
// with q1 = |c1|/sqrt(p1·ltfTmplPower) computed as detectTiming does.
// It must also reject most positions 2⁻³⁰ below the gate, or it proves
// nothing useful.
func TestSquaredScreenIsAProof(t *testing.T) {
	templateOnce.Do(initTemplates)
	rng := rand.New(rand.NewSource(38))
	gate := math.Nextafter(0.5, 0)
	var below, rejectedBelow int
	for trial := 0; trial < 4000; trial++ {
		scale := math.Ldexp(1, rng.Intn(901)-450)
		e := make([]float64, FFTSize)
		for i := range e {
			v := complex(rng.NormFloat64(), rng.NormFloat64()) * complex(scale, 0)
			switch {
			case i == 5 && trial%7 == 0:
				v = complex(scale*1e-200, 0) // energy underflows
			case i == 9 && trial%11 == 0:
				v *= 1e6 // one sample dominates
			}
			e[i] = signal.Energy(v)
		}
		screen := signal.NewEnergyScreen(41440, ltfTmplPower)
		var p1 float64
		for _, v := range e {
			screen.Enter(v)
			p1 += v
		}
		if p1 == 0 || math.IsInf(p1, 0) {
			continue
		}
		target := 0.5 * math.Sqrt(p1*ltfTmplPower)
		var rel float64
		switch k := trial % 4; k {
		case 0:
			rel = 0
		case 1:
			rel = -math.Ldexp(rng.Float64(), -16-rng.Intn(37))
		case 2:
			rel = math.Ldexp(rng.Float64(), -16-rng.Intn(37))
		default:
			rel = -0x1p-30
		}
		theta := []float64{0, math.Pi / 2, math.Pi / 4, 2 * math.Pi * rng.Float64()}[trial%4]
		a := target * (1 + rel)
		cs := []complex128{
			complex(a*math.Cos(theta), a*math.Sin(theta)),
			complex(math.Nextafter(a, 0), 0),
			complex(0, math.Nextafter(a, math.Inf(1))),
			complex(5e-324, 0),
			0,
			complex(1e300, 1e300),
			complex(math.Inf(1), 0),
			complex(math.NaN(), 1),
		}
		for _, c := range cs {
			q1 := cmplx.Abs(c) / math.Sqrt(p1*ltfTmplPower)
			rejected := screen.BeatenSquared(signal.Energy(c), gate)
			if rejected && !(q1 < 0.5) {
				t.Fatalf("trial %d: screen rejected c = %v with q1 = %v (p1 = %v)", trial, c, q1, p1)
			}
			if rejected && !screen.Beaten(cmplx.Abs(c), gate) {
				t.Fatalf("trial %d: squared screen rejected c = %v, which Beaten keeps", trial, c)
			}
		}
		if rel == -0x1p-30 {
			below++
			if screen.BeatenSquared(signal.Energy(cs[0]), gate) {
				rejectedBelow++
			}
		}
	}
	if rejectedBelow < below*9/10 {
		t.Fatalf("squared screen rejected %d of %d positions 2⁻³⁰ below the gate", rejectedBelow, below)
	}
}
