// Package simd provides runtime-dispatched vector kernels for the
// hottest inner loops of the packet path: the int16 Viterbi
// add-compare-select trellis (the WiFi Viterbi decoder's steady state,
// renormalisation included), the whole radix-2
// complex FFT of 16 to 1024 points (signal.Plan, and through it the
// Bluetooth channel filter), the real-tap FIR behind
// signal.ConvolveInto (the GFSK Gaussian filter) and the Bluetooth sync
// scan, the ZigBee preamble
// slice correlations (zigbee.(*Receiver).Detect), the channel's
// Gaussian noise (signal.Noise, signal.(*Signal).AddAWGN): the
// lagged-Fibonacci block fill, the ziggurat's fast-path acceptance
// flags, the left-pack of the draws that yield a normal and the
// fast-path add over them, and the elementwise complex passes of
// the packet path (signal.ScaleInto and Signal.ScalePower under the
// tag's rotation, the sideband gain, the channel's receive gain and the
// WiFi receiver's phase trackers, and the WiFi symbol scaling), the
// per-sample phasor product of the CFO rotor (signal.Derotate), the
// overlap-save filter's bin product (signal.OverlapSave), and the
// WiFi receiver's equaliser (wifi's equalizer.apply: the per-bin Smith
// division by the channel estimate). Each kernel has an AVX2 assembly
// implementation on amd64, and the callers keep their pure-Go loops as
// the always-available fallback and the semantic definition. Every other
// architecture builds as noasm does and runs the Go loops.
//
// Exactness contract: every kernel is bit-identical to the pure-Go
// reference for every input, not just typical ones. The one exception
// is a NaN's payload bits where two NaNs meet in a commutative add or
// multiply: which operand x86 propagates follows the instruction's
// operand order, which for compiled Go is a register-allocation choice
// (two Go spellings of the same loop already disagree). NaN-ness itself
// is always identical, as is every non-NaN bit (±Inf, −0, subnormals).
//
//   - ViterbiACS does its arithmetic in int16 lanes with all 64 metrics
//     in registers, renormalising inside. It first checks, by a vector
//     scan, that its metrics and symbols are in the range where no lane
//     can overflow; there int16 arithmetic is the Go kernel's plain-int
//     arithmetic exactly, and elsewhere it declines and the caller runs
//     the Go loop. Survivor selection uses a strict greater-than against
//     the low-predecessor candidate, reproducing the scalar "higher
//     predecessor wins only when strictly better" tie order.
//
//   - FFT vectorizes across independent butterflies only, two per
//     ymm, three stages per pass with the points in registers; within a
//     butterfly the operations are the scalar complex multiply (re =
//     br·wr − bi·wi, im = br·wi + bi·wr, each product rounded, unit
//     twiddles multiplied too) and then lo' = a+prod, hi' = a−prod,
//     with no reassociation, fused multiply-add, or extended precision.
//     The imaginary part adds the same two products in the other order,
//     which IEEE addition makes exact. The bit-reversal permutation is
//     in the addresses the first pass loads from; no point is swapped.
//
//   - FIRReal vectorizes across outputs only; each output is summed
//     from +0 in input-index order, and each term is x·h without Go's
//     ·0 cross terms (re = xr·h − xi·0, im = xi·h + xr·0). On a finite
//     sample a cross term is ±0 and changes the product only in the
//     sign of a zero, which a sum started at +0 cannot see (under
//     round-to-nearest it never becomes −0, so adding ±0 leaves it
//     unchanged). A non-finite sample makes every output that reads it
//     non-finite, so FIRReal reports whether all outputs are finite and
//     the caller recomputes the block with its Go loop when they are
//     not. Outputs it reports finite are bit-identical.
//
//   - PreambleCorr vectorizes across scan positions only; each sum
//     keeps the scalar order and each product is xr·cr − xi·ci,
//     xr·ci + xi·cr: the sample's duplicated real part times the
//     template, its duplicated imaginary part times the swapped
//     template, and one VADDSUBPD.
//
//   - LagFill is 64-bit integer addition, exact by construction; it
//     runs 16 values per pass, which the recurrence's shortest lag
//     (273) leaves independent.
//
//   - ZigReject is integer-only: the ziggurat's unsigned acceptance
//     test per draw, eight draws per pass, packed into flag bits in
//     draw order.
//
//   - NormAdd vectorizes across draws only; each lane is the scalar
//     fast path's float64(j)·float64(w), then ·sigma, then the add into
//     the sample, each rounded once (no FMA).
//
//   - Pack moves 64-bit values without touching their bits: four per
//     pass, the kept lanes first by a VPERMD index vector looked up
//     from the pass's keep nibble, so the kept values and their count
//     are the Go loop's. Only the slots past the count differ: the
//     kernel leaves stale lanes there, which the contract leaves
//     unspecified.
//
//   - Scale vectorizes across samples only; each product is Go's
//     complex product with all four real products (a real gain's ·0
//     cross terms included): the sample times the broadcast real part,
//     the swapped sample times the broadcast imaginary part, and one
//     VADDSUBPD, xr·gr − xi·gi and xi·gr + xr·gi, each rounded once.
//
//   - ScalePower is Scale plus the power sum: each term re² + im² is
//     rounded once (VMULPD, VHADDPD), and the terms are added one
//     scalar add at a time, from +0 in index order, so the sum is the
//     Go loop's; that serial add chain bounds its speed.
//
//   - DivScale is the runtime's Smith division by a real divisor
//     (re + im·0, im − re·0 as im + re·(−0), which IEEE makes the same
//     value, then ·inv) followed by Scale's product. Where both quotient
//     parts are NaN the runtime takes a C99 fallback the kernel does not
//     have, so it reports any such sample and the caller redoes the
//     block in Go; a clean report certifies bit-identical outputs.
//
//   - Rotate vectorizes across samples only; each sample's phasor is
//     its run's base times its table entry, as Scale's product with
//     the broadcast base, and the sample's product with it spreads the
//     phasor's real and imaginary parts (VMOVDDUP, VPERMILPD) and ends
//     in one VADDSUBPD: Go's x·r with all four real products, each
//     rounded once.
//
//   - Mul is Rotate's sample product with a per-sample factor in the
//     phasor's place: Go's x·y with all four real products, each
//     rounded once.
//
//   - Equalise gathers each output's bin, scales it as Scale does by a
//     real gain, and divides it by a fixed divisor in the runtime's
//     Smith form: both branches' numerators as v·A + swap(v)·B (x·1 is
//     x, x·(−r) is −(x·r), a − b is a + (−b)), one VDIVPD per two
//     outputs, and a per-output mask passing zero-divisor bins through.
//     Like DivScale it reports any output whose two quotient parts are
//     both NaN, where the runtime takes its C99 fallback.
//
// On amd64 the Go compiler never fuses a multiply into an add (at any
// GOAMD64 level; only math.FMA fuses), so the Go twins round every
// product and the kernels match them. On arm64 it does fuse, so no
// kernel written to the amd64 contract could match the Go loops there.
//
// Dispatch is decided once at init from CPU features, can be disabled
// at build time with the `noasm` build tag, and at runtime (tests) with
// SetEnabled.
package simd

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// hwMode is the vector ISA this binary+CPU combination supports:
// "avx2", or "" when the build has no asm kernels (noasm tag, other
// GOARCH) or the CPU lacks the features. Fixed at init.
var hwMode = hwDetect()

// active gates dispatch. It starts true exactly when hwMode is
// non-empty; SetEnabled flips it at runtime.
var active atomic.Bool

func init() {
	active.Store(hwMode != "")
}

// Enabled reports whether the asm kernels are currently dispatched.
// When false, callers must use their pure-Go paths; calling the
// kernels below with Enabled()==false panics on noasm builds.
func Enabled() bool { return active.Load() }

// Mode names the dispatch path current callers get: "avx2" or "go".
// Benchmark tooling records this next to each trajectory point so perf
// history is attributable to a code path.
func Mode() string {
	if !active.Load() {
		return "go"
	}
	return hwMode
}

// HWMode names the ISA the binary could use regardless of the current
// Enabled state ("" when none). Lets tests distinguish "disabled by
// choice" from "nothing to enable".
func HWMode() string { return hwMode }

// SetEnabled turns asm dispatch on or off at runtime and returns the
// previous state. Enabling is a no-op (returns the unchanged state)
// when the binary or CPU has no asm kernels. Used by the differential
// tests to force both paths in one process.
func SetEnabled(on bool) bool {
	prev := active.Load()
	if on && hwMode == "" {
		return prev
	}
	active.Store(on)
	return prev
}

// ViterbiRenorm is the period, in trellis steps, at which ViterbiACS
// renormalises the path metrics.
const ViterbiRenorm = 64

// The range ViterbiACS accepts: every path metric and every symbol
// within these bounds keeps each lane of its int16 arithmetic exact
// (see ViterbiACS).
const (
	ViterbiMaxMetric = 4096
	ViterbiMaxSymbol = 63
)

// ViterbiSigns is the branch-gain sign table laid out for ViterbiACS.
type ViterbiSigns struct{ t [64]int16 }

// NewViterbiSigns lays out a per-butterfly sign table for ViterbiACS:
// signs[k] is the sign (±1) the first symbol qa carries in butterfly
// k's branch gain (states 2k, 2k+1 → k, k+32), signs[32+k] the second
// symbol qb's. The kernel keeps butterflies 0..7, 16..23 in one
// register and 8..15, 24..31 in another, and forms each gain from the
// dword pair (qa, qb) and its swap (qb, qa), so for each register it
// stores S1 (qa's sign in even words, qb's in odd words) and S2 (the
// other symbol's).
func NewViterbiSigns(signs *[64]int16) ViterbiSigns {
	var v ViterbiSigns
	for r := 0; r < 2; r++ {
		for p := 0; p < 16; p++ {
			k := 8*r + p
			if p >= 8 {
				k += 8
			}
			sa, sb := signs[k], signs[32+k]
			if p%2 == 1 {
				sa, sb = sb, sa
			}
			v.t[32*r+p], v.t[32*r+16+p] = sa, sb
		}
	}
	return v
}

// ViterbiACS runs len(tb) add-compare-select trellis steps over the 64
// de Bruijn states of the K=7 802.11 code, subtracting the largest path
// metric from all 64 before step renormAt and every ViterbiRenorm steps
// after it. metric holds the int16 path metrics on entry and the
// updated metrics on return. signs is a sign table NewViterbiSigns laid
// out: butterfly k (states 2k/2k+1 → k, k+32) has gain g = sa·qa + sb·qb
// with sa, sb the signs given for it, new state k the candidates
// m[2k]+g and m[2k+1]−g, new state k+32 the candidates m[2k]−g and
// m[2k+1]+g. q holds the symbol pairs (qa, qb), 2 per step. tb[t]
// receives the 64 survivor-selection bits of step t: bit s set ⇔ new
// state s took its odd predecessor, which it does only when that
// candidate is strictly larger.
//
// The kernel computes in int16 lanes, so it takes only inputs for which
// no lane can overflow: every metric within ±ViterbiMaxMetric and every
// symbol within ±ViterbiMaxSymbol (|g| ≤ G = 126). Before the first
// renormalisation (at most 63 steps) every value then stays within
// ±(4096 + 63·G) = ±12034. The first one leaves the metrics in
// [−(8192 + 2·63·G), 0] = [−24068, 0], and the 64 steps after it stay
// within [−24068 − 64·G, 64·G] = [−32132, 8064]. From the second one on
// (at least 64 ≥ 6 steps in, when every state is reachable from every
// other, so the metrics span at most 12·G) they stay within
// [−76·G, 64·G] = [−9576, 8064]. On any other input ViterbiACS returns
// false and leaves metric and tb untouched; the caller then runs its Go
// loop, whose plain-int arithmetic wraps only on the int16 stores.
//
// renormAt must be in [0, ViterbiRenorm), and len(q) ≥ 2·len(tb).
// Callers must check Enabled().
func ViterbiACS(metric *[64]int16, signs *ViterbiSigns, q []int16, tb []uint64, renormAt int) (ok bool) {
	steps := len(tb)
	if steps == 0 {
		return true
	}
	if len(q) < 2*steps {
		panic("simd: ViterbiACS needs 2 symbols per step")
	}
	if renormAt < 0 || renormAt >= ViterbiRenorm {
		panic("simd: ViterbiACS renormAt out of range")
	}
	return viterbiACS(metric, signs, &q[0], &tb[0], steps, renormAt)
}

// FFTMinSize and FFTMaxSize bound the transforms FFT takes: its first
// pass holds two 8-point groups per block, and its scratch copy of the
// data lives in a fixed stack frame.
const (
	FFTMinSize = 16
	FFTMaxSize = 1024
)

// FFTTwiddles lays out a transform's per-stage twiddle tables in the
// order FFT reads them. stages[s] holds the 2^s twiddles of the stage
// with blocks of 2^(s+1) points, so len(stages) is log2 of the size.
// Each entry the kernel multiplies by is stored as a "pair": the real
// parts of the twiddles of its two lanes, each duplicated
// (w0r w0r w1r w1r), then the imaginary parts the same way, so a
// product needs one shuffle of the data and none of the twiddles. A
// pass over stages s..s+k−1 (k ≤ 3, d = 2^s) stores, for every lane
// position r, stage s's pair (r), stage s+1's (r) and (r+d), and stage
// s+2's (r+m·d) for m = 0..3. The first pass's two lanes hold the same
// position of two groups, so it stores each twiddle in both lanes, for
// r = 0 only; a later pass's lanes hold positions r and r+1, for every
// even r < d.
//
// The values are copied, never recomputed, so the kernel multiplies by
// exactly the numbers the Go loops do.
func FFTTwiddles(stages [][]complex128) []float64 {
	n := 1 << len(stages)
	if n < FFTMinSize || n > FFTMaxSize {
		panic("simd: FFTTwiddles size out of range")
	}
	for s, tw := range stages {
		if len(tw) != 1<<s {
			panic("simd: FFTTwiddles stage table length mismatch")
		}
	}
	out := make([]float64, 0, fftTableLen(n))
	for s := 0; s < len(stages); s += 3 {
		k := min(3, len(stages)-s)
		d, lane, step := 1<<s, 1, 2
		if s == 0 {
			lane, step = 0, d
		}
		for r := 0; r < d; r += step {
			for j := 0; j < k; j++ {
				for m := 0; m < 1<<j; m++ {
					w0, w1 := stages[s+j][r+m*d], stages[s+j][r+m*d+lane]
					out = append(out, real(w0), real(w0), real(w1), real(w1), imag(w0), imag(w0), imag(w1), imag(w1))
				}
			}
		}
	}
	return out
}

// fftTableLen is the length of FFTTwiddles' layout for n points: 7
// pairs for the first pass, then 2^k − 1 pairs per even r < d = 2^s for
// a later pass over k stages from s; a pair is 8 values.
func fftTableLen(n int) int {
	l := bits.Len(uint(n)) - 1
	pairs := 7
	for s := 3; s < l; s += 3 {
		pairs += (1<<min(3, l-s) - 1) << (s - 1)
	}
	return 8 * pairs
}

// fftCols holds, per log2 size, the first pass's byte offsets: for
// each block, where its loads start in x and where its first lane's
// points go. Block i = 2c + h reads rows 2·rev3(j) + h of columns 2c
// and 2c+1 of x seen as 16 rows of n/16 points; its lanes are the
// logical groups g = rev(2c) and g + n/32 (rev in log2(n)−4 bits), and
// it holds their points 8h..8h+7. At 16 points the two lanes are
// rows h = 0 and 1 of the only column, which the same offsets give.
var fftCols = func() (t [11][]uint32) {
	for l := 4; l < len(t); l++ {
		n := 1 << l
		for i := 0; i < n/16; i++ {
			c, h := i>>1, i&1
			g := 0
			if l > 4 {
				g = int(bits.Reverse32(uint32(2*c)) >> (32 - (l - 4)))
			}
			t[l] = append(t[l], uint32(32*c+h*n), uint32(256*g+128*h))
		}
	}
	return t
}()

// FFT runs a whole radix-2 decimation-in-time transform of x in place:
// the bit-reversal permutation, then every butterfly stage, three
// stages per pass over memory, with the twiddles tw built by
// FFTTwiddles from the transform's stage tables. Each butterfly is the
// scalar loop's: p = b·w as (br·wr − bi·wi, br·wi + bi·wr), each
// product rounded and unit twiddles multiplied too, then a+p and a−p
// (see the package comment). len(x) must be a power of two from
// FFTMinSize to FFTMaxSize. Callers must check Enabled().
func FFT(x []complex128, tw []float64) {
	n := len(x)
	if n < FFTMinSize || n > FFTMaxSize || n&(n-1) != 0 {
		panic("simd: FFT size must be a power of two in [16, 1024]")
	}
	if len(tw) != fftTableLen(n) {
		panic("simd: FFT twiddle table does not match the size")
	}
	fft(&x[0], n, &tw[0], &fftCols[bits.Len(uint(n))-1][0])
}

// FIRReal computes len(dst) outputs of a real-tap FIR over complex
// samples, each summed from +0 in input order:
//
//	dst[q] = Σ_{t<len(h)} x[q+t] · complex(h[len(h)-1-t], 0)
//
// This is the "valid" part of a convolution: output q reads
// x[q : q+len(h)]. It returns whether every output is finite; only then
// are the outputs guaranteed bit-identical to the Go loop's (the kernel
// drops the ·0 cross terms, which matter only for Inf or NaN samples,
// and those always make an output non-finite). len(dst) must be a
// multiple of 8, len(h) ≥ 1 and len(x) ≥ len(dst)+len(h)−1; dst must
// not overlap x. Callers must check Enabled().
func FIRReal(dst, x []complex128, h []float64) (finite bool) {
	if len(dst)%8 != 0 {
		panic("simd: FIRReal output count must be a multiple of 8")
	}
	if len(dst) == 0 {
		return true
	}
	if len(h) == 0 || len(x) < len(dst)+len(h)-1 {
		panic("simd: FIRReal input shorter than outputs + taps - 1")
	}
	return firReal(&dst[0], len(dst), &x[0], &h[0], len(h))
}

// PreambleCorr correlates len(acc) consecutive positions of x against
// one template:
//
//	acc[p] = Σ_{j<len(tpl)} x[p+j] · tpl[j]
//
// with each product lowered as (xr·cr − xi·ci, xr·ci + xi·cr) and each
// sum taken from +0 in j order. tpl is used as given (pass a conjugated
// template for a matched filter). len(acc) must be a multiple of 8,
// len(tpl) ≥ 1 and len(x) ≥ len(acc)−1+len(tpl). Callers must check
// Enabled().
func PreambleCorr(acc, x, tpl []complex128) {
	if len(acc)%8 != 0 {
		panic("simd: PreambleCorr position count must be a multiple of 8")
	}
	if len(acc) == 0 {
		return
	}
	if len(tpl) == 0 || len(x) < len(acc)-1+len(tpl) {
		panic("simd: PreambleCorr input shorter than positions + template - 1")
	}
	preambleCorr(&acc[0], len(acc), &x[0], &tpl[0], len(tpl))
}

// The lags of math/rand's additive lagged-Fibonacci generator: its raw
// output satisfies y[k] = y[k-FibLong] + y[k-FibShort] (mod 2⁶⁴), so the
// last FibLong values are its whole state.
const (
	FibLong  = 607
	FibShort = 273
)

// LagFill extends that sequence in place:
//
//	y[k] = y[k-FibLong] + y[k-FibShort]   for FibLong ≤ k < len(y)
//
// len(y) − FibLong must be a non-negative multiple of 16. Callers must
// check Enabled().
func LagFill(y []uint64) {
	n := len(y) - FibLong
	if n < 0 || n%16 != 0 {
		panic("simd: LagFill needs FibLong + a multiple of 16 values")
	}
	if n == 0 {
		return
	}
	lagFill(&y[0], n)
}

// ZigReject flags the draws that leave the ziggurat fast path of
// math/rand's NormFloat64: each raw generator output u gives
// j = int32(u>>31), and bit b of flags[w] is set exactly when draw
// u[64w+b] has |j| ≥ kn[j&127] as unsigned integers (|−2³¹| = 2³¹).
// len(u) must be 64·len(flags). Callers must check Enabled().
func ZigReject(flags, u []uint64, kn *[128]uint32) {
	if len(u) != 64*len(flags) {
		panic("simd: ZigReject needs 64 draws per flag word")
	}
	if len(flags) == 0 {
		return
	}
	zigReject(&flags[0], &u[0], len(flags), &kn[0])
}

// NormAdd adds sigma-scaled fast-path normals into x, two draws per
// sample (real part first): with j = int32(u>>31) and w = wn[j&127],
//
//	x[q] += complex(float64(j0)·float64(w0)·sigma, float64(j1)·float64(w1)·sigma)
//
// for draws u[2q], u[2q+1], each product rounded in that order. It is
// NormFloat64's value for draws ZigReject leaves unflagged and for
// flagged draws the wedge test accepts; the caller hands it the packed
// draws of those (Pack). len(u) must be at least 2·len(x).
// Callers must check Enabled().
func NormAdd(x []complex128, u []uint64, wn *[128]float32, sigma float64) {
	if len(u) < 2*len(x) {
		panic("simd: NormAdd needs two draws per sample")
	}
	if len(x) == 0 {
		return
	}
	normAdd(&x[0], len(x), &u[0], &wn[0], sigma)
}

// Pack left-packs the draws of u that drop leaves clear: u[i] is
// dropped when bit i%64 of drop[i/64] is set, and the kept draws are
// written to dst in order. It returns their count k. dst must have
// room for len(u) values and may start at u itself (packing in place);
// dst[k:len(u)] is left unspecified. Callers must check Enabled().
func Pack(dst, u, drop []uint64) int {
	if len(dst) < len(u) || 64*len(drop) < len(u) {
		panic("simd: Pack needs room for every draw and a drop bit per draw")
	}
	n8, k := len(u)&^7, 0
	if n8 > 0 {
		k = pack(&dst[0], &u[0], n8/8, &drop[0])
	}
	for i := n8; i < len(u); i++ {
		dst[k] = u[i]
		k += int(^drop[i/64] >> (i % 64) & 1)
	}
	return k
}

// Scale writes x·g into dst, element for element:
//
//	dst[i] = x[i] · g
//
// with Go's complex product, all four real products kept (a real gain's
// ·0 cross terms included). dst may be x itself but must not otherwise
// overlap it; len(dst) must equal len(x). Callers must check Enabled().
func Scale(dst, x []complex128, g complex128) {
	if len(dst) != len(x) {
		panic("simd: Scale needs len(dst) == len(x)")
	}
	if len(x) == 0 {
		return
	}
	scale(&dst[0], &x[0], len(x), real(g), imag(g))
}

// ScalePower scales x in place by g, as Scale does, and returns the sum
// of the scaled samples' |x[i]|² taken from +0 in index order:
//
//	p += real(v)·real(v) + imag(v)·imag(v)   for v = x[i]·g, i ascending
//
// each square, each term and each partial sum rounded once. Callers
// must check Enabled().
func ScalePower(x []complex128, g complex128) float64 {
	if len(x) == 0 {
		return 0
	}
	return scalePower(&x[0], len(x), real(g), imag(g))
}

// DivScale writes into dst each sample of x divided by a real divisor
// in the runtime's Smith form and then multiplied by g:
//
//	e = (real(x[i]) + imag(x[i])·0) · inv
//	f = (imag(x[i]) − real(x[i])·0) · inv
//	dst[i] = complex(e, f) · g
//
// each operation rounded once in that order. For inv = 1/d with d a
// positive power of two this is x[i]/complex(d, 0) · g, except where e
// and f are both NaN: there the runtime division takes its fallback,
// so DivScale returns false and the caller must recompute the samples
// in Go. dst may be x itself but must not otherwise overlap it;
// len(dst) must equal len(x). Callers must check Enabled().
func DivScale(dst, x []complex128, inv float64, g complex128) (ok bool) {
	if len(dst) != len(x) {
		panic("simd: DivScale needs len(dst) == len(x)")
	}
	if len(x) == 0 {
		return true
	}
	return divScale(&dst[0], &x[0], len(x), inv, real(g), imag(g))
}

// RotateRun is the number of samples that share one base phasor in
// Rotate: the length of its phasor table.
const RotateRun = 64

// Rotate writes each sample of x times its own phasor into dst:
//
//	r = runs[i/RotateRun] · tab[i%RotateRun]
//	dst[i] = x[i] · r
//
// with Go's complex product, all four real products kept, each rounded
// once. dst may be x itself but must not otherwise overlap it;
// len(dst) must equal len(x), and runs must hold a phasor for every
// started run of RotateRun samples. Callers must check Enabled().
func Rotate(dst, x, runs []complex128, tab *[RotateRun]complex128) {
	if len(dst) != len(x) {
		panic("simd: Rotate needs len(dst) == len(x)")
	}
	if len(x) == 0 {
		return
	}
	if len(runs) < (len(x)+RotateRun-1)/RotateRun {
		panic("simd: Rotate needs a phasor per run")
	}
	rotate(&dst[0], &x[0], len(x), &runs[0], &tab[0])
}

// Mul writes the elementwise product of x and y into dst:
//
//	dst[i] = x[i] · y[i]
//
// with Go's complex product, all four real products kept, each rounded
// once. dst may be x itself but must not otherwise overlap it, nor
// overlap y; x and y must be as long as dst. Callers must check
// Enabled().
func Mul(dst, x, y []complex128) {
	if len(x) != len(dst) || len(y) != len(dst) {
		panic("simd: Mul needs len(x) == len(y) == len(dst)")
	}
	if len(dst) == 0 {
		return
	}
	mul(&dst[0], &x[0], &y[0], len(dst))
}

// EqualiseCoef holds the coefficients of one pair of Equalise outputs,
// as rows of four lanes (output 0's real and imaginary lanes, then
// output 1's): A, B, D and the pass-through mask M. Set fills one
// output's half of each row.
type EqualiseCoef [16]float64

// Set lays out output lane (0 or 1) of the pair for division by a
// divisor d in the runtime's Smith form, given the divisor-only terms
// the runtime computes: mode 1 (|real(d)| ≥ |imag(d)|) with
// ratio = imag(d)/real(d) and denom = real(d) + ratio·imag(d), mode 2
// with ratio = real(d)/imag(d) and denom = imag(d) + ratio·real(d), and
// mode 0 to pass the scaled sample through (d = 0, no division). The
// numerators become v·A + swap(v)·B:
//
//	mode 1: A = (1, 1),         B = (ratio, −ratio)  → (re + im·ratio, im − re·ratio)
//	mode 2: A = (ratio, ratio), B = (1, −1)          → (re·ratio + im, im·ratio − re)
//
// Each is the runtime's numerator bit for bit: x·1 is x, x·(−r) is
// −(x·r), and a − b is a + (−b) in IEEE arithmetic.
func (c *EqualiseCoef) Set(lane, mode int, ratio, denom float64) {
	a, b, d, m := [2]float64{1, 1}, [2]float64{0, 0}, 1.0, 0.0
	switch mode {
	case 0:
		m = math.Float64frombits(1 << 63)
	case 1:
		b = [2]float64{ratio, -ratio}
		d = denom
	case 2:
		a, b = [2]float64{ratio, ratio}, [2]float64{1, -1}
		d = denom
	default:
		panic("simd: EqualiseCoef mode must be 0, 1 or 2")
	}
	o := 2 * lane
	c[o], c[o+1] = a[0], a[1]
	c[4+o], c[4+o+1] = b[0], b[1]
	c[8+o], c[8+o+1] = d, d
	c[12+o], c[12+o+1] = m, m
}

// Equalise writes len(dst) equalised samples, output i read from
// x[bins[i]] with the coefficients coef[i/2] laid out by Set:
//
//	v = x[bins[i]] · complex(inv, 0)     (all four real products)
//	dst[i] = v                           for mode 0
//	dst[i] = complex(e, f)               otherwise, (e, f) the Smith quotient
//
// each operation rounded once. Where e and f are both NaN the runtime
// division takes its fallback, so Equalise returns false and the caller
// must recompute the outputs in Go. len(dst) must be even and equal
// len(bins) and 2·len(coef), and every bin index must be inside x; dst
// must not overlap x. Callers must check Enabled().
func Equalise(dst, x []complex128, bins []int32, coef []EqualiseCoef, inv float64) (ok bool) {
	if len(dst)%2 != 0 || len(bins) != len(dst) || 2*len(coef) != len(dst) {
		panic("simd: Equalise needs an even output count matching its bins and coefficient pairs")
	}
	if len(dst) == 0 {
		return true
	}
	switch equalise(&dst[0], &x[0], len(x), &bins[0], &coef[0], len(coef), inv) {
	case 0:
		return true
	case 1:
		return false
	}
	panic("simd: Equalise bin outside the input")
}
