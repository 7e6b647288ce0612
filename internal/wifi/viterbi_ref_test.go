package wifi

import (
	"math/rand"
	"testing"
)

// legacyViterbiDecode is the pre-optimisation decoder kept verbatim as a
// reference: the per-next-state ACS restructure must reproduce its output —
// including tie-breaks — bit for bit on every input.
func legacyViterbiDecode(coded []byte) ([]byte, error) {
	if len(coded)%2 != 0 {
		return nil, nil
	}
	n := len(coded) / 2
	if n == 0 {
		return nil, nil
	}
	const inf = int32(1) << 30

	type branch struct{ a, b byte }
	var expect [numStates][2]branch
	for s := 0; s < numStates; s++ {
		for in := 0; in < 2; in++ {
			reg := (in << 6) | s
			expect[s][in] = branch{parity7(reg & genA), parity7(reg & genB)}
		}
	}

	metric := make([]int32, numStates)
	next := make([]int32, numStates)
	for i := range metric {
		metric[i] = inf
	}
	metric[0] = 0

	prev := make([][]byte, n)
	for t := 0; t < n; t++ {
		prev[t] = make([]byte, numStates)
		ra, rb := coded[2*t], coded[2*t+1]
		for i := range next {
			next[i] = inf
		}
		for s := 0; s < numStates; s++ {
			m := metric[s]
			if m >= inf {
				continue
			}
			for in := 0; in < 2; in++ {
				e := expect[s][in]
				cost := m
				if ra != erasure && ra != e.a {
					cost++
				}
				if rb != erasure && rb != e.b {
					cost++
				}
				ns := ((in << 6) | s) >> 1
				if cost < next[ns] {
					next[ns] = cost
					prev[t][ns] = byte(s) | byte(in)<<6
				}
			}
		}
		metric, next = next, metric
	}

	state := 0
	if metric[0] >= inf {
		best := int32(inf)
		for s, m := range metric {
			if m < best {
				best, state = m, s
			}
		}
	}
	out := make([]byte, n)
	for t := n - 1; t >= 0; t-- {
		p := prev[t][state]
		out[t] = (p >> 6) & 1
		state = int(p & 0x3F)
	}
	return out, nil
}

func TestViterbiDecodeMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(200)
		coded := make([]byte, 2*n)
		switch trial % 3 {
		case 0:
			// Valid codeword with random bit flips: realistic metrics with
			// plenty of ties between survivor paths.
			info := make([]byte, n)
			for i := 0; i < n-6; i++ {
				info[i] = byte(rng.Intn(2))
			}
			copy(coded, ConvEncode(info))
			for f := 0; f < rng.Intn(6); f++ {
				coded[rng.Intn(len(coded))] ^= 1
			}
		case 1:
			// Pure noise: maximal tie density.
			for i := range coded {
				coded[i] = byte(rng.Intn(2))
			}
		case 2:
			// Noise with erasures, as the depuncturer produces.
			for i := range coded {
				if rng.Intn(3) == 0 {
					coded[i] = erasure
				} else {
					coded[i] = byte(rng.Intn(2))
				}
			}
		}
		want, _ := legacyViterbiDecode(coded)
		got, err := ViterbiDecodeInto(make([]byte, n), coded)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: len %d vs %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: bit %d differs (fast %d, legacy %d)", trial, i, got[i], want[i])
			}
		}
	}
}
