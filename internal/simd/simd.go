// Package simd provides runtime-dispatched vector kernels for the
// hottest inner loops of the packet path: the int16 Viterbi
// add-compare-select step (wifi.ViterbiDecodeInto), the radix-2
// complex FFT butterfly pass (signal.Plan), the real-tap FIR behind
// signal.ConvolveInto (the Bluetooth channel filter and the GFSK
// Gaussian filter) and the Bluetooth sync scan, the ZigBee preamble
// slice correlations (zigbee.(*Receiver).detect), and the channel's
// Gaussian noise (signal.Noise, signal.(*Signal).AddAWGN): the
// lagged-Fibonacci block fill, the ziggurat's fast-path acceptance
// flags and the fast-path add. Each kernel has an AVX2 assembly
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
//   - ViterbiACS does its arithmetic in 32-bit lanes (sign-extended
//     from the int16 metrics) exactly like the Go kernel's plain-int
//     arithmetic, then truncates to int16 on store, so even
//     saturation-boundary metrics (±32767) wrap identically. Survivor
//     selection uses a strict greater-than against the low-predecessor
//     candidate, reproducing the scalar "higher predecessor wins only
//     when strictly better" tie order.
//
//   - FFTPass vectorizes across independent butterflies only; within a
//     butterfly the operation order is exactly the scalar
//     complex-multiply-then-add/sub sequence (re = br·wr − bi·wi,
//     im = br·wi + bi·wr; lo' = a+prod, hi' = a−prod), with no
//     reassociation, fused multiply-add, or extended precision, so
//     float results are bit-identical to the Go loop.
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
//     keeps the scalar order and the products use FFTPass's lowering.
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
// On amd64 the Go compiler never fuses a multiply into an add (at any
// GOAMD64 level; only math.FMA fuses), so the Go twins round every
// product and the kernels match them. On arm64 it does fuse, so no
// kernel written to the amd64 contract could match the Go loops there.
//
// Dispatch is decided once at init from CPU features, can be disabled
// at build time with the `noasm` build tag, at process start with the
// FREERIDER_NOSIMD environment variable, and at runtime (tests, ops)
// with SetEnabled.
package simd

import (
	"os"
	"sync/atomic"
)

// NoSIMDEnv names the environment variable that, when set to any
// non-empty value, forces the pure-Go kernels without a rebuild. Ops
// escape hatch: if a machine misreports CPU features or an asm kernel
// is suspected, FREERIDER_NOSIMD=1 restores the reference path.
const NoSIMDEnv = "FREERIDER_NOSIMD"

// hwMode is the vector ISA this binary+CPU combination supports:
// "avx2", or "" when the build has no asm kernels (noasm tag, other
// GOARCH) or the CPU lacks the features. Fixed at init.
var hwMode = hwDetect()

// active gates dispatch. It starts true only when hwMode is non-empty
// and the env override is absent; SetEnabled flips it at runtime.
var active atomic.Bool

func init() {
	active.Store(hwMode != "" && os.Getenv(NoSIMDEnv) == "")
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

// ViterbiACS runs len(tb) add-compare-select trellis steps over the 64
// de Bruijn states of the K=7 802.11 code. metric holds the int16 path
// metrics on entry and the updated metrics on return. signs is the
// per-butterfly branch-gain sign table: signs[k] is the first-symbol
// sign (±1) for butterfly k (states 2k/2k+1 → k), signs[32+k] the
// second-symbol sign. q holds the quantized symbol pairs, 2 per step.
// tb[t] receives the 64 survivor-selection bits for step t (bit s set
// ⇔ new state s chose the higher predecessor).
//
// Callers must check Enabled() first; no renormalization happens
// inside, so steps must not cross a renorm boundary.
func ViterbiACS(metric *[64]int16, signs *[64]int32, q []int16, tb []uint64) {
	steps := len(tb)
	if steps == 0 {
		return
	}
	if len(q) < 2*steps {
		panic("simd: ViterbiACS needs 2 symbols per step")
	}
	viterbiACS(metric, signs, &q[0], &tb[0], steps)
}

// FFTPass applies one radix-2 DIT stage to x in place: for every block
// of `size` elements, butterflies pair element k with element
// k+size/2 using twiddle tw[k]. len(tw) must be size/2 and len(x) a
// multiple of size. Operation order per butterfly matches the scalar
// loop exactly (see package comment). Callers must check Enabled().
func FFTPass(x []complex128, tw []complex128, size int) {
	if size < 2 || size&(size-1) != 0 {
		panic("simd: FFTPass size must be a power of two >= 2")
	}
	if len(tw) != size/2 || len(x)%size != 0 {
		panic("simd: FFTPass twiddle/input length mismatch")
	}
	if len(x) == 0 {
		return
	}
	fftPass(&x[0], len(x), &tw[0], size)
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
// NormFloat64's value only for draws ZigReject leaves unflagged; the
// caller hands it runs of those. len(u) must be at least 2·len(x).
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
