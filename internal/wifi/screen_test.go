package wifi

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/signal"
)

// refDetectTiming is the pre-screen scan kept verbatim: the FFT
// matched-filter screen must reproduce its result bit for bit.
func refDetectTiming(cap *signal.Signal) (int, float64) {
	templateOnce.Do(initTemplates)
	lt := ltfConjTmpl
	ltPow := ltfTmplPower
	n := len(cap.Samples)
	best, bestQ := -1, 0.0
	for i := 0; i+PreambleLen+SymbolLen <= n; i++ {
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
		if bestQ > 0.5 && i > best+SymbolLen {
			break
		}
	}
	return best, bestQ
}

func TestDetectTimingScreenBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tx := NewTransmitter()
	rx := NewReceiver()
	mk := func(pad int, scale complex128, noise float64) *signal.Signal {
		psdu := make([]byte, 40+rng.Intn(60))
		rng.Read(psdu)
		pkt, err := tx.Transmit(psdu, Rates[12])
		if err != nil {
			t.Fatal(err)
		}
		cap := signal.New(SampleRate, pad+len(pkt.Samples)+pad)
		for i, v := range pkt.Samples {
			cap.Samples[pad+i] = v * scale
		}
		for i := range cap.Samples {
			cap.Samples[i] += complex(rng.NormFloat64(), rng.NormFloat64()) * complex(noise, 0)
		}
		return cap
	}
	caps := []*signal.Signal{
		mk(400, 1, 0.01),             // clean packet, long scan tail
		mk(3000, 0.3, 0.2),           // weak packet in heavy noise
		mk(400, 0, 0.3),              // noise only: nothing to detect
		mk(400, 1e-9, 1e-12),         // near-silent capture
		signal.New(SampleRate, 6000), // exact zeros everywhere
	}
	// Two packets in one capture: the scan must still pick the global best.
	two := mk(400, 0.6, 0.05)
	pkt2, _ := tx.Transmit([]byte{1, 2, 3, 4, 5, 6, 7, 8}, Rates[12])
	ext := signal.New(SampleRate, len(two.Samples)+len(pkt2.Samples)+400)
	copy(ext.Samples, two.Samples)
	copy(ext.Samples[len(two.Samples):], pkt2.Samples)
	caps = append(caps, ext)

	for ci, cap := range caps {
		for _, from := range []int{0, 100, len(cap.Samples) / 2} {
			tail := &signal.Signal{Rate: cap.Rate, Samples: cap.Samples[from:]}
			wantStart, wantQ := refDetectTiming(tail)
			gotStart, gotQ := rx.detectTiming(tail)
			if gotStart != wantStart || gotQ != wantQ {
				t.Fatalf("capture %d from %d: screen scan (%d, %v) != plain scan (%d, %v)",
					ci, from, gotStart, gotQ, wantStart, wantQ)
			}
		}
	}
}

// TestLazyScreenMatchesEager proves the incremental screen computes the
// same survivor set as a full eager pass over the same region.
func TestLazyScreenMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	tx := NewTransmitter()
	psdu := AppendFCS(make([]byte, 300))
	sig, err := tx.Transmit(psdu, Rates[24])
	if err != nil {
		t.Fatal(err)
	}
	cap := appendSilence(sig, 3000, 3000)
	for i := range cap.Samples {
		cap.Samples[i] += complex(1e-4*rng.NormFloat64(), 1e-4*rng.NormFloat64())
	}
	count := len(cap.Samples) - PreambleLen - SymbolLen - 192
	a := signal.GetArena()
	eager := append([]byte(nil), ltfScreen(cap.Samples, 192, count, a)...)
	a.Release()

	a2 := signal.GetArena()
	defer a2.Release()
	var sc ltfScreener
	sc.init(cap.Samples, 192, count, a2)
	for u := 0; u < count; u++ {
		if got, want := sc.passAt(u), eager[u] != 0; got != want {
			t.Fatalf("offset %d: lazy screen %v, eager %v", u, got, want)
		}
	}
}

// ltfScreen screens all count offsets at once: the eager pass the lazy
// screener must reproduce.
func ltfScreen(s []complex128, p0, count int, a *signal.Arena) []byte {
	var sc ltfScreener
	sc.init(s, p0, count, a)
	for sc.done < sc.count {
		sc.block()
	}
	return sc.pass
}
