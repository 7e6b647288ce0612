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
// build has.
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
		if s, q := NewReceiver().detectTiming(cap); s != ws || !sameFloat(q, wq) {
			t.Fatalf("%d samples (%s): detectTiming (%d, %v), reference (%d, %v)",
				len(x), simd.Mode(), s, q, ws, wq)
		}
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
