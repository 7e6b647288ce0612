package wifi

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/simd"
)

// steadyRun runs viterbiSteady from step t0 over steps more steps in
// the given dispatch mode and returns the final metrics and the
// selector words of those steps.
func steadyRun(useSIMD bool, metric [numStates]int16, q []int16, t0, steps int) ([numStates]int16, []uint64) {
	prev := simd.SetEnabled(useSIMD)
	defer simd.SetEnabled(prev)
	tb := make([]uint64, t0+steps)
	viterbiSteady(&metric, q[:2*(t0+steps)], tb, t0)
	return metric, tb[t0:]
}

// diffACS drives the steady-state trellis from step t0 through the
// dispatching call in both modes and requires byte equality of every
// output: all 64 survivor metrics and every traceback word. This is the
// exhaustive side of the exactness proof: survivor selection (the
// strict a1 > a0 tie rule), the renormalisation schedule and the int16
// truncation must agree even on inputs the decoder can never produce
// (out of the kernel's range, the dispatching call falls back to Go).
func diffACS(t *testing.T, metric [numStates]int16, q []int16, t0, steps int) {
	t.Helper()
	wantM, wantTb := steadyRun(false, metric, q, t0, steps)
	gotM, gotTb := steadyRun(true, metric, q, t0, steps)
	if wantM != gotM {
		t.Fatalf("metrics diverge after %d steps from %d:\nscalar %v\nsimd   %v\ninput metric %v q %v",
			steps, t0, wantM, gotM, metric, q[2*t0:2*(t0+steps)])
	}
	for i := range wantTb {
		if wantTb[i] != gotTb[i] {
			t.Fatalf("traceback word %d diverges: scalar %016x simd %016x\ninput metric %v q %v",
				i, wantTb[i], gotTb[i], metric, q[2*t0:2*(t0+steps)])
		}
	}
}

// TestViterbiACSDifferential sweeps structured and random inputs
// through both dispatch modes of viterbiSteady: the all-equal tie case
// (every selector bit is decided by the tie rule alone),
// saturation-boundary metrics (±32767, where the int16 stores wrap and
// the kernel declines), the erasure gain (q = 0), and a bulk randomized
// sweep at every renormalisation phase, half of it inside the kernel's
// range.
func TestViterbiACSDifferential(t *testing.T) {
	if simd.HWMode() == "" {
		t.Skip("no asm kernels in this build")
	}
	prev := simd.SetEnabled(true)
	defer simd.SetEnabled(prev)
	if !simd.Enabled() {
		t.Skip("asm kernels refused to enable")
	}

	var zero [numStates]int16
	allEqual := zero // every butterfly ties; selector must stay 0 on a-side wins
	diffACS(t, allEqual, []int16{0, 0, 0, 0}, 0, 2)
	diffACS(t, allEqual, []int16{63, -63, 1, -1}, 0, 2)

	var sat [numStates]int16
	for i := range sat {
		if i%2 == 0 {
			sat[i] = 32767
		} else {
			sat[i] = -32768
		}
	}
	diffACS(t, sat, []int16{32767, -32768, 63, -63}, 0, 2)
	diffACS(t, sat, []int16{-32768, -32768, 32767, 32767}, 0, 2)

	// Odd trials draw metrics from the whole int16 range and add
	// saturation symbols, which the kernel declines; even ones stay inside
	// its range, which it takes.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var m [numStates]int16
		for i := range m {
			m[i] = int16(rng.Intn(1 << 16))
			if trial%2 == 0 {
				m[i] = int16(rng.Intn(2*simd.ViterbiMaxMetric+1) - simd.ViterbiMaxMetric)
			}
		}
		t0 := rng.Intn(viterbiRenorm)
		steps := 1 + rng.Intn(200) // across up to four renormalisations
		q := make([]int16, 2*(t0+steps))
		for i := range q {
			switch r := rng.Intn(8); {
			case trial%2 == 1 && r == 0:
				q[i] = 32767
			case trial%2 == 1 && r == 1:
				q[i] = -32768
			default:
				q[i] = int16(rng.Intn(127) - 63)
			}
		}
		diffACS(t, m, q, t0, steps)
	}
}

// TestViterbiACSInRange drives simd.ViterbiACS directly over inputs in
// the range it must take — metrics within ±ViterbiMaxMetric, symbols
// within ±ViterbiMaxSymbol, both bounds included — and fails if it
// declines any of them or differs from the Go loop.
func TestViterbiACSInRange(t *testing.T) {
	if simd.HWMode() == "" {
		t.Skip("no asm kernels in this build")
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		var m [numStates]int16
		for i := range m {
			m[i] = int16(rng.Intn(2*simd.ViterbiMaxMetric+1) - simd.ViterbiMaxMetric)
		}
		q := make([]int16, 2*(1+rng.Intn(300)))
		for i := range q {
			q[i] = int16(rng.Intn(2*simd.ViterbiMaxSymbol+1) - simd.ViterbiMaxSymbol)
		}
		if trial%3 == 0 { // extremes: every metric and symbol at a bound
			for i := range m {
				m[i] = int16(simd.ViterbiMaxMetric * (1 - 2*rng.Intn(2)))
			}
			for i := range q {
				q[i] = int16(simd.ViterbiMaxSymbol * (1 - 2*rng.Intn(2)))
			}
		}
		inRangeACS(t, m, q, rng.Intn(viterbiRenorm))
	}
}

// inRangeACS runs simd.ViterbiACS on metrics and symbols inside its
// range and fails if it declines them or differs from the Go loop
// started renormAt steps before a renormalisation.
func inRangeACS(t *testing.T, m [numStates]int16, q []int16, renormAt int) {
	t.Helper()
	steps := len(q) / 2
	lead := viterbiRenorm - renormAt // a start index with the same phase
	wantM, wantTb := steadyRun(false, m, append(make([]int16, 2*lead), q...), lead, steps)
	gotM, gotTb := m, make([]uint64, steps)
	if !simd.ViterbiACS(&gotM, &acsSigns, q, gotTb, renormAt) {
		t.Fatalf("kernel declined an in-range input (renormAt %d)\nmetric %v\nq %v", renormAt, m, q)
	}
	if wantM != gotM {
		t.Fatalf("metrics diverge (renormAt %d):\ngo   %v\nsimd %v", renormAt, wantM, gotM)
	}
	for i := range wantTb {
		if wantTb[i] != gotTb[i] {
			t.Fatalf("traceback word %d (renormAt %d): go %016x simd %016x", i, renormAt, wantTb[i], gotTb[i])
		}
	}
}

// FuzzViterbiACSInRange maps arbitrary bytes onto the kernel's range —
// metrics within ±ViterbiMaxMetric, symbols within ±ViterbiMaxSymbol —
// and fails if simd.ViterbiACS declines any such input or differs
// from the Go loop.
func FuzzViterbiACSInRange(f *testing.F) {
	f.Add(make([]byte, 128+4*8), uint8(0))
	ext := make([]byte, 128+4*130)
	for i := range ext {
		ext[i] = 0xFF
	}
	f.Add(ext, uint8(63))
	rnd := make([]byte, 128+4*200)
	rand.New(rand.NewSource(5)).Read(rnd)
	f.Add(rnd, uint8(58))
	f.Fuzz(func(t *testing.T, raw []byte, renormRaw uint8) {
		if simd.HWMode() == "" {
			t.Skip("no asm kernels in this build")
		}
		if len(raw) < 128+4 {
			t.Skip("not enough input bytes")
		}
		var m [numStates]int16
		for i := range m {
			m[i] = int16(int(binary.LittleEndian.Uint16(raw[2*i:]))%(2*simd.ViterbiMaxMetric+1) - simd.ViterbiMaxMetric)
		}
		q := make([]int16, (len(raw)-128)/4*2)
		for i := range q {
			q[i] = int16(int(binary.LittleEndian.Uint16(raw[128+2*i:]))%(2*simd.ViterbiMaxSymbol+1) - simd.ViterbiMaxSymbol)
		}
		inRangeACS(t, m, q, int(renormRaw)%viterbiRenorm)
	})
}

// TestViterbiDecodeDispatchIdentity decodes whole streams in both
// dispatch modes and requires identical output bits — the whole-decoder
// complement to the kernel-level differential above (startup, renorm
// timing, and traceback included). Random ±63 symbol streams drive
// viterbiMaxKernel well past the hard decoder's {-1, 0, +1} gains;
// punctured, noisy codewords drive ViterbiDecodeInto at every coding
// rate with the erasures the depuncturer inserts.
func TestViterbiDecodeDispatchIdentity(t *testing.T) {
	if simd.HWMode() == "" {
		t.Skip("no asm kernels in this build")
	}
	prev := simd.Enabled()
	defer simd.SetEnabled(prev)

	rng := rand.New(rand.NewSource(2))
	lengths := []int{1, 5, 6, 7, 63, 64, 65, 129, 500}
	for _, n := range lengths {
		q := make([]int16, 2*n)
		for i := range q {
			q[i] = int16(rng.Intn(127) - 63)
		}
		wantBits, gotBits := make([]byte, n), make([]byte, n)
		simd.SetEnabled(false)
		viterbiMaxKernel(wantBits, q)
		simd.SetEnabled(true)
		viterbiMaxKernel(gotBits, q)
		if !bytes.Equal(wantBits, gotBits) {
			t.Fatalf("n=%d: kernel bits differ between dispatch modes\ngo   %v\nsimd %v", n, wantBits, gotBits)
		}
	}

	for _, cr := range []CodingRate{Rate1_2, Rate2_3, Rate3_4} {
		for _, n := range lengths {
			// n info bits, rounded up to a whole puncturing period.
			period := len(puncturePattern(cr))
			n = (n + period - 1) / period * period
			info := make([]byte, n)
			for i := range info {
				info[i] = byte(rng.Intn(2))
			}
			punct, err := Puncture(ConvEncode(info), cr)
			if err != nil {
				t.Fatal(err)
			}
			for i := range punct {
				if rng.Intn(8) == 0 {
					punct[i] ^= 1
				}
			}
			coded, err := Depuncture(punct, cr, n)
			if err != nil {
				t.Fatal(err)
			}
			simd.SetEnabled(false)
			wantBits, err := ViterbiDecodeInto(make([]byte, n), coded)
			if err != nil {
				t.Fatal(err)
			}
			simd.SetEnabled(true)
			gotBits, err := ViterbiDecodeInto(make([]byte, n), coded)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantBits, gotBits) {
				t.Fatalf("%v n=%d: decoded bits differ between dispatch modes\ngo   %v\nsimd %v", cr, n, wantBits, gotBits)
			}
		}
	}
}

// FuzzViterbiACS is the differential fuzzer behind `make fuzz-simd`:
// arbitrary bytes become a full metric state, a symbol stream (the
// generator deliberately includes ±32767/-32768 saturation values), and
// a step count and renormalisation phase; viterbiSteady must give the
// same bytes dispatched (the asm kernel, or the Go loop where the kernel
// declines) as in pure Go.
func FuzzViterbiACS(f *testing.F) {
	// Seeds: zeros (pure tie-break), saturation stripes, and a random blob.
	// Each seed carries exactly the 128 metric bytes and 4 bytes per step
	// that its step count (stepsRaw%160 + 1) needs.
	f.Add(make([]byte, 128+4*9), uint8(8))
	sat := make([]byte, 128+4*17)
	for i := 0; i < len(sat); i += 2 {
		binary.LittleEndian.PutUint16(sat[i:], 0x7FFF)
		if i%4 == 2 {
			binary.LittleEndian.PutUint16(sat[i:], 0x8000)
		}
	}
	f.Add(sat, uint8(16))
	rnd := make([]byte, 128+4*65)
	rng := rand.New(rand.NewSource(3))
	rng.Read(rnd)
	f.Add(rnd, uint8(64))

	f.Fuzz(func(t *testing.T, raw []byte, stepsRaw uint8) {
		if simd.HWMode() == "" {
			t.Skip("no asm kernels in this build")
		}
		prev := simd.SetEnabled(true)
		defer simd.SetEnabled(prev)
		if !simd.Enabled() {
			t.Skip("asm kernels refused to enable")
		}
		steps := int(stepsRaw)%160 + 1
		t0 := int(stepsRaw) % viterbiRenorm
		need := 128 + 4*steps
		if len(raw) < need {
			t.Skip("not enough input bytes")
		}
		var m [numStates]int16
		for i := range m {
			m[i] = int16(binary.LittleEndian.Uint16(raw[2*i:]))
		}
		q := make([]int16, 2*(t0+steps))
		for i := 0; i < 2*steps; i++ {
			q[2*t0+i] = int16(binary.LittleEndian.Uint16(raw[128+2*i:]))
		}
		diffACS(t, m, q, t0, steps)
	})
}
