package wifi

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/simd"
)

// acsReference mirrors viterbiACSChunkGo's contract for the differential
// tests: it snapshots the inputs, runs the scalar kernel, and returns
// the resulting metrics and traceback words.
func acsReference(metric [numStates]int16, q []int16, steps int) ([numStates]int16, []uint64) {
	tb := make([]uint64, steps)
	viterbiACSChunkGo(&metric, q, tb)
	return metric, tb
}

// acsSIMD does the same through the asm kernel.
func acsSIMD(metric [numStates]int16, q []int16, steps int) ([numStates]int16, []uint64) {
	tb := make([]uint64, steps)
	simd.ViterbiACS(&metric, &acsSigns, q, tb)
	return metric, tb
}

// diffACS drives both kernels over the same inputs and requires byte
// equality of every output: all 64 survivor metrics after every
// possible step count parity, and every traceback word. This is the
// exhaustive side of the exactness proof: survivor selection (the
// strict a1 > a0 tie rule) and the int16 truncation must agree even on
// inputs the decoder can never produce.
func diffACS(t *testing.T, metric [numStates]int16, q []int16, steps int) {
	t.Helper()
	wantM, wantTb := acsReference(metric, q, steps)
	gotM, gotTb := acsSIMD(metric, q, steps)
	if wantM != gotM {
		t.Fatalf("metrics diverge after %d steps:\nscalar %v\nsimd   %v\ninput metric %v q %v",
			steps, wantM, gotM, metric, q[:2*steps])
	}
	for i := range wantTb {
		if wantTb[i] != gotTb[i] {
			t.Fatalf("traceback word %d diverges: scalar %016x simd %016x\ninput metric %v q %v",
				i, wantTb[i], gotTb[i], metric, q[:2*steps])
		}
	}
}

// TestViterbiACSDifferential sweeps structured and random inputs
// through both kernels: the all-equal tie case (every selector bit is
// decided by the tie rule alone), saturation-boundary metrics (±32767,
// where the int16 stores wrap), the erasure gain (q = 0), and a bulk
// randomized sweep over mixed step counts covering both copy-back
// parities.
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
	diffACS(t, allEqual, []int16{0, 0, 0, 0}, 2)
	diffACS(t, allEqual, []int16{63, -63, 1, -1}, 2)

	var sat [numStates]int16
	for i := range sat {
		if i%2 == 0 {
			sat[i] = 32767
		} else {
			sat[i] = -32768
		}
	}
	diffACS(t, sat, []int16{32767, -32768, 63, -63}, 2)
	diffACS(t, sat, []int16{-32768, -32768, 32767, 32767}, 2)

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var m [numStates]int16
		for i := range m {
			m[i] = int16(rng.Intn(1 << 16))
		}
		steps := 1 + rng.Intn(65) // both parities, including a renorm-sized 64
		q := make([]int16, 2*steps)
		for i := range q {
			switch rng.Intn(8) {
			case 0:
				q[i] = 32767
			case 1:
				q[i] = -32768
			default:
				q[i] = int16(rng.Intn(127) - 63)
			}
		}
		diffACS(t, m, q, steps)
	}
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
// a step count; the asm and pure-Go kernels must agree byte for byte.
func FuzzViterbiACS(f *testing.F) {
	// Seeds: zeros (pure tie-break), saturation stripes, and a random blob.
	f.Add(make([]byte, 128+4*8), uint8(8))
	sat := make([]byte, 128+4*16)
	for i := 0; i < len(sat); i += 2 {
		binary.LittleEndian.PutUint16(sat[i:], 0x7FFF)
		if i%4 == 2 {
			binary.LittleEndian.PutUint16(sat[i:], 0x8000)
		}
	}
	f.Add(sat, uint8(16))
	rnd := make([]byte, 128+4*64)
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
		steps := int(stepsRaw)%96 + 1
		need := 128 + 4*steps
		if len(raw) < need {
			t.Skip("not enough input bytes")
		}
		var m [numStates]int16
		for i := range m {
			m[i] = int16(binary.LittleEndian.Uint16(raw[2*i:]))
		}
		q := make([]int16, 2*steps)
		for i := range q {
			q[i] = int16(binary.LittleEndian.Uint16(raw[128+2*i:]))
		}
		diffACS(t, m, q, steps)
	})
}
