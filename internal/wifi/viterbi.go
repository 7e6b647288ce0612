package wifi

import (
	"fmt"

	"repro/internal/signal"
	"repro/internal/simd"
)

// hardGain maps a received hard/erasure bit onto its trellis gain value:
// bit 0 → -1, bit 1 → +1, everything else (an erasure) → 0. A flat table
// keeps the per-bit mapping branchless.
var hardGain = func() (t [256]int16) {
	t[0] = -1
	t[1] = 1
	return t
}()

// ViterbiDecodeInto decodes a rate-1/2 coded stream (pairs A,B per
// information bit; a byte other than 0 or 1 is an erasure) by hard-decision
// maximum likelihood, writing the n = len(coded)/2 decoded bits into
// dst[:n] without allocating; dst must have room. It assumes the encoder
// started in the zero state and was flushed with tail bits, and returns
// all decoded information bits (including the tail) aliasing dst.
//
// Each received bit r becomes the gain value r' ∈ {-1, 0, +1} (0 for
// erasures) of the int16 max-gain trellis kernel, and the per-branch
// Hamming cost satisfies cost = C_t − gain/2 where C_t = (#unerased
// bits)/2 depends only on the step, not the state. Every compare the
// historical min-cost decoder performs therefore maps to the same compare
// on negated-and-shifted values in the max-gain kernel — including exact
// ties, the t<6 unreachable-state guards, and the final best-state scan —
// so the decoded bits are identical for every input (viterbi_ref_test.go
// cross-checks against a verbatim copy of that decoder).
func ViterbiDecodeInto(dst, coded []byte) ([]byte, error) {
	if len(coded)%2 != 0 {
		return nil, fmt.Errorf("wifi: coded stream length %d is odd", len(coded))
	}
	n := len(coded) / 2
	if n == 0 {
		return nil, nil
	}
	if len(dst) < n {
		return nil, fmt.Errorf("wifi: decode dst %d too short for %d bits", len(dst), n)
	}
	arena := signal.GetArena()
	defer arena.Release()
	q := arena.Int16Uninit(len(coded))
	for i, r := range coded {
		q[i] = hardGain[r]
	}
	viterbiMaxKernel(dst[:n], q)
	return dst[:n], nil
}

const (
	// viterbiRenorm: the gains per step are within ±2 (two symbols from
	// {-1, 0, +1}) and the de Bruijn spread bound is 6 steps, so
	// renormalising by the running maximum every 64 steps keeps every
	// finite metric within ±(6·2 + 64)·2 = ±152, far clear of both the
	// startup sentinel and int16 overflow. The margin would still hold
	// for symbols up to |q| ≤ 63 (±9576 < 1<<14), which is the range the
	// dispatch-identity tests drive the kernel over.
	viterbiRenorm = simd.ViterbiRenorm
	viterbiNinf   = -(int16(1) << 14)
)

// viterbiMaxKernel is the int16 trellis recursion: it maximises the
// accumulated gain Σ (±qa ± qb) over the 64-state trellis, writing the
// len(q)/2 decoded bits into out. The hard decoder feeds it gains from
// {-1, 0, +1} — see ViterbiDecodeInto for the exact equivalence argument.
//
// The add-compare-select walks next states: ns has the two predecessors
// s0 = (2·ns) mod 64 and s0+1 under input bit ns>>5. One gain value per
// butterfly suffices (the XOR-3 images negate it), the compare-select is
// branchless (the survivor choice flips with the noise, so a conditional
// branch is unpredictable), and the survivor set of each step packs into
// a single uint64 — one selector bit per next state — so the traceback
// touches 8 bytes per step instead of 64. The higher predecessor 2k+1
// wins only when strictly better, preserving the historical
// lower-source-state tie rule.
func viterbiMaxKernel(out []byte, q []int16) {
	n := len(out)
	var mA, mB [numStates]int16
	metric, next := &mA, &mB
	for i := range metric {
		metric[i] = viterbiNinf
	}
	metric[0] = 0

	arena := signal.GetArena()
	defer arena.Release()
	// tb[t] holds one survivor-selector bit per next state: bit ns set
	// means state ns chose the higher predecessor 2·(ns mod 32)+1. Every
	// step assigns its word before the traceback reads it, so the scratch
	// can skip the arena's zeroing pass.
	tb := arena.Uint64Uninit(n)

	// Startup: the trellis is a de Bruijn graph on 6-bit states — every
	// state is reachable from state 0 in exactly 6 steps, so the first 6
	// steps need the sentinel guards and everything after does not.
	t := 0
	for ; t < 6 && t < n; t++ {
		qa, qb := int(q[2*t]), int(q[2*t+1])
		// gainT[eab] = (2A-1)·qa + (2B-1)·qb for the expected pair A<<1|B.
		var gainT [4]int
		gainT[0] = -qa - qb
		gainT[1] = -qa + qb
		gainT[2] = qa - qb
		gainT[3] = qa + qb
		var word uint64
		const ninf = int(viterbiNinf)
		for k := 0; k < 32; k++ {
			s0 := 2 * k
			m0, m1 := int(metric[s0]), int(metric[s0+1])
			g := gainT[bfExpect[k]&3]
			a0, a1 := ninf, ninf
			if m0 > ninf {
				a0 = m0 + g
			}
			if m1 > ninf {
				a1 = m1 - g
			}
			switch {
			case a1 > a0:
				next[k] = int16(a1)
				word |= 1 << k
			case a0 > ninf:
				next[k] = int16(a0)
			default:
				next[k] = viterbiNinf
			}
			b0, b1 := ninf, ninf
			if m0 > ninf {
				b0 = m0 - g
			}
			if m1 > ninf {
				b1 = m1 + g
			}
			switch {
			case b1 > b0:
				next[k+32] = int16(b1)
				word |= 1 << (k + 32)
			case b0 > ninf:
				next[k+32] = int16(b0)
			default:
				next[k+32] = viterbiNinf
			}
		}
		tb[t] = word
		metric, next = next, metric
	}

	viterbiSteady(metric, q[:2*n], tb, t)

	state := 0
	if metric[0] <= viterbiNinf {
		best := viterbiNinf
		for s, m := range metric {
			if m > best {
				best, state = m, s
			}
		}
	}
	for t := n - 1; t >= 0; t-- {
		out[t] = byte(state >> 5)
		sel := int(tb[t]>>uint(state)) & 1
		state = (state<<1)&0x3F | sel
	}
}

// viterbiSteady runs the unguarded steady-state steps t0..len(tb)−1 of
// the trellis over q, renormalising before every step whose index is a
// multiple of viterbiRenorm, and leaves the final metrics in *metric.
// Dispatched, it is one simd.ViterbiACS call; when the kernel declines
// (metrics or symbols outside the range its int16 lanes hold exactly,
// which the decoder never produces), the chunked Go loop below runs
// instead. Both compute the same metrics and selector words.
func viterbiSteady(metric *[numStates]int16, q []int16, tb []uint64, t0 int) {
	n := len(tb)
	if t0 >= n {
		return
	}
	if simd.Enabled() && simd.ViterbiACS(metric, &acsSigns, q[2*t0:2*n], tb[t0:], -t0&(viterbiRenorm-1)) {
		return
	}
	for t := t0; t < n; {
		if t%viterbiRenorm == 0 {
			renormMetrics(metric)
		}
		end := min((t/viterbiRenorm+1)*viterbiRenorm, n)
		viterbiACSChunkGo(metric, q[2*t:2*end], tb[t:end])
		t = end
	}
}

// renormMetrics subtracts the running maximum from every path metric —
// exactly the scan the historical in-loop renormalisation performed, so
// the post-renorm metrics (and therefore everything downstream) are
// unchanged by the chunked restructuring.
func renormMetrics(metric *[numStates]int16) {
	max := metric[0]
	for _, m := range metric[1:] {
		if m > max {
			max = m
		}
	}
	for i := range metric {
		metric[i] -= max
	}
}

// acsSigns feeds simd.ViterbiACS: entry k holds the ±1 sign the first
// symbol qa carries in butterfly k's branch gain and entry 32+k the
// sign for qb, i.e. gainT[bfExpect[k]&3] == acsSigns[k]·qa +
// acsSigns[32+k]·qb, laid out for the kernel. Derived from the same
// expected-pair table the scalar kernels index, so the two dispatch
// paths cannot disagree on the trellis.
var acsSigns = buildACSSigns()

func buildACSSigns() simd.ViterbiSigns {
	var t [numStates]int16
	for k := 0; k < 32; k++ {
		e := bfExpect[k] & 3
		t[k] = int16(2*int(e>>1) - 1)
		t[32+k] = int16(2*int(e&1) - 1)
	}
	return simd.NewViterbiSigns(&t)
}

// viterbiACSChunkGo is the pure-Go steady-state ACS: len(tb) unguarded
// trellis steps with no renormalisation; with renormMetrics between
// chunks (viterbiSteady) it is the scalar reference the SIMD kernel must
// match bit-for-bit. The loop body is the historical t>=6
// fast path verbatim; only the buffering changed (an internal scratch
// array with a copy-back when the step count is odd, so the final
// metrics always land back in *metric).
//
// The ACS runs in plain int: every finite metric is within
// ±(6·2+64)·2 (the viterbiRenorm bound), so the int16 adds of the
// historical form never wrapped and widening them is value-identical —
// while sparing the compiler the sign-extension shuffle that spilled
// half the loop to the stack. For out-of-contract metrics (the
// differential fuzzer drives ±32767) the int arithmetic still cannot
// wrap and the int16() stores truncate; the SIMD kernel's int16 lanes
// would wrap earlier there, so it declines such inputs and this loop
// runs (see simd.ViterbiACS).
func viterbiACSChunkGo(metric *[numStates]int16, q []int16, tb []uint64) {
	var scratch [numStates]int16
	cur, next := metric, &scratch
	for t := range tb {
		qa, qb := int(q[2*t]), int(q[2*t+1])
		// gainT[eab] = (2A-1)·qa + (2B-1)·qb for the expected pair A<<1|B.
		var gainT [4]int
		gainT[0] = -qa - qb
		gainT[1] = -qa + qb
		gainT[2] = qa - qb
		gainT[3] = qa + qb
		// a1 > a0 iff the historical da = a0-a1 sign bit was set, so
		// survivor choice and selector bit are unchanged, ties (a1 == a0)
		// still keeping the lower predecessor. Two butterflies per
		// iteration halve the serial selector shift-or chain; wider unrolls
		// measured slower (register pressure).
		var wa, wb uint64
		for k := 30; k >= 0; k -= 2 {
			m0, m1 := int(cur[2*k+2]), int(cur[2*k+3])
			g := gainT[bfExpect[k+1]&3]
			a0, a1 := m0+g, m1-g
			ma := a0
			var sa1 uint64
			if a1 > a0 {
				ma, sa1 = a1, 1
			}
			b0, b1 := m0-g, m1+g
			mb := b0
			var sb1 uint64
			if b1 > b0 {
				mb, sb1 = b1, 1
			}
			next[k+1] = int16(ma)
			next[k+33] = int16(mb)

			m0, m1 = int(cur[2*k]), int(cur[2*k+1])
			g = gainT[bfExpect[k]&3]
			a0, a1 = m0+g, m1-g
			ma = a0
			var sa0 uint64
			if a1 > a0 {
				ma, sa0 = a1, 1
			}
			b0, b1 = m0-g, m1+g
			mb = b0
			var sb0 uint64
			if b1 > b0 {
				mb, sb0 = b1, 1
			}
			next[k] = int16(ma)
			next[k+32] = int16(mb)

			wa = wa<<2 | sa1<<1 | sa0
			wb = wb<<2 | sb1<<1 | sb0
		}
		tb[t] = wb<<32 | wa
		cur, next = next, cur
	}
	if cur != metric {
		*metric = *cur
	}
}
