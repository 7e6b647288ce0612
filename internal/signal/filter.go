package signal

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/simd"
)

// LowpassFIR designs a windowed-sinc (Hamming) lowpass FIR filter with the
// given cutoff frequency in Hz at the given sample rate, with taps
// coefficients (odd tap count recommended for a symmetric filter).
func LowpassFIR(rate, cutoff float64, taps int) ([]float64, error) {
	if taps < 3 {
		return nil, fmt.Errorf("signal: need at least 3 taps, got %d", taps)
	}
	if cutoff <= 0 || cutoff >= rate/2 {
		return nil, fmt.Errorf("signal: cutoff %g Hz outside (0, %g)", cutoff, rate/2)
	}
	fc := cutoff / rate // normalised cutoff (cycles/sample)
	h := make([]float64, taps)
	mid := float64(taps-1) / 2
	var sum float64
	for i := range h {
		t := float64(i) - mid
		var v float64
		if t == 0 {
			v = 2 * fc
		} else {
			v = math.Sin(2*math.Pi*fc*t) / (math.Pi * t)
		}
		// Hamming window.
		v *= 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(taps-1))
		h[i] = v
		sum += v
	}
	for i := range h { // unity DC gain
		h[i] /= sum
	}
	return h, nil
}

// GaussianFIR returns the Gaussian pulse-shaping filter used by GFSK with
// bandwidth-time product bt, sampled at sps samples per symbol, spanning
// span symbols. Normalised to unity sum.
func GaussianFIR(bt float64, sps, span int) []float64 {
	n := sps*span + 1
	h := make([]float64, n)
	// Standard GMSK Gaussian response: alpha = sqrt(ln2)/(2*pi*BT).
	alpha := math.Sqrt(math.Ln2) / (2 * math.Pi * bt)
	mid := float64(n-1) / 2
	var sum float64
	for i := range h {
		t := (float64(i) - mid) / float64(sps) // in symbol periods
		h[i] = math.Exp(-t * t / (2 * alpha * alpha))
		sum += h[i]
	}
	for i := range h {
		h[i] /= sum
	}
	return h
}

// ConvolveInto filters x with real taps h ("same" alignment: output
// sample i corresponds to input sample i with the filter group delay
// removed). The len(x) outputs are written to dst[:len(x)] (reallocated
// only when dst is too small), so a warm caller allocates nothing. dst
// must not overlap x.
//
// Each output is gathered: output k is the full-convolution sample
// n = k + (len(h)−1)/2, the sum of x[i]·h[n−i] over every valid i taken
// from +0 in ascending i. That is exactly the order in which a scatter
// loop over x (full[i+j] += x[i]·h[j]) adds into full[n], so the result
// is bit-identical to the textbook form without its len(x)+len(h)−1
// intermediate. The interior outputs, whose taps all land inside x, are
// a "valid" FIR (simd.FIRReal when dispatched, firRealGo otherwise);
// the edges drop the taps that fall outside x. FIRReal leaves out the
// Go multiply's ·0 cross terms, which only an Inf or NaN sample can
// make visible; such a sample always yields a non-finite output, so
// when the kernel reports one the block is recomputed with firRealGo.
func ConvolveInto(dst, x []complex128, h []float64) []complex128 {
	if len(x) == 0 || len(h) == 0 {
		return dst[:0]
	}
	if cap(dst) < len(x) {
		dst = make([]complex128, len(x))
	}
	dst = dst[:len(x)]
	m := len(h)
	delay := (m - 1) / 2
	// Interior output k reads x[k−lo : k−lo+m].
	lo := min(m-1-delay, len(x))
	hi := max(lo, len(x)-delay)
	interior := dst[lo:hi]
	if simd.Enabled() {
		vec := len(interior) &^ 7
		if !simd.FIRReal(interior[:vec], x, h) {
			firRealGo(interior[:vec], x, h)
		}
		firRealGo(interior[vec:], x[vec:], h)
	} else {
		firRealGo(interior, x, h)
	}
	convolveEdge(dst, x, h, 0, lo)
	convolveEdge(dst, x, h, hi, len(x))
	return dst
}

// firRealGo is the Go definition of simd.FIRReal:
// dst[q] = Σ_{t<len(h)} x[q+t]·complex(h[len(h)−1−t], 0), summed from +0
// in t order. Four outputs share each pass so their independent sums
// overlap instead of queueing on one add-latency chain.
func firRealGo(dst, x []complex128, h []float64) {
	m := len(h)
	q := 0
	for ; q+4 <= len(dst); q += 4 {
		xs := x[q : q+m+3]
		var a0, a1, a2, a3 complex128
		for t := 0; t < m; t++ {
			hv := complex(h[m-1-t], 0)
			a0 += xs[t] * hv
			a1 += xs[t+1] * hv
			a2 += xs[t+2] * hv
			a3 += xs[t+3] * hv
		}
		dst[q], dst[q+1], dst[q+2], dst[q+3] = a0, a1, a2, a3
	}
	for ; q < len(dst); q++ {
		var acc complex128
		for t, xv := range x[q : q+m] {
			acc += xv * complex(h[m-1-t], 0)
		}
		dst[q] = acc
	}
}

// convolveRange is ConvolveInto's Go definition for outputs k0..k1−1:
// firRealGo where every tap lands inside x, convolveEdge elsewhere.
func convolveRange(dst, x []complex128, h []float64, k0, k1 int) {
	m := len(h)
	delay := (m - 1) / 2
	lo := min(m-1-delay, len(x))
	hi := max(lo, len(x)-delay)
	if a, b := max(k0, lo), min(k1, hi); a < b {
		firRealGo(dst[a:b], x[a-lo:], h)
	}
	convolveEdge(dst, x, h, k0, min(k1, lo))
	convolveEdge(dst, x, h, max(k0, hi), k1)
}

// convolveEdge computes ConvolveInto's outputs k0..k1−1 near either end
// of x, where some taps fall outside it.
func convolveEdge(dst, x []complex128, h []float64, k0, k1 int) {
	m := len(h)
	delay := (m - 1) / 2
	for k := k0; k < k1; k++ {
		n := k + delay
		var acc complex128
		for i := max(0, n-m+1); i <= min(n, len(x)-1); i++ {
			acc += x[i] * complex(h[n-i], 0)
		}
		dst[k] = acc
	}
}

// Correlate fills dst[p] with the correlation of x[p:] against tpl,
//
//	dst[p] = Σ_{j<len(tpl)} x[p+j] · tpl[j]
//
// (pass the conjugated template for a matched filter): whole groups of
// 8 positions through simd.PreambleCorr when dispatched, the rest in
// Go. The Go loop is the kernel's definition: each sum runs from +0 in
// sample order, and the product is spelled in the real arithmetic
// `x * cmplx.Conj(r)` lowers to. len(x) must be at least
// len(dst)+len(tpl)−1.
func Correlate(dst, x, tpl []complex128) {
	vec := 0
	if simd.Enabled() {
		vec = len(dst) &^ 7
		simd.PreambleCorr(dst[:vec], x, tpl)
	}
	for p := vec; p < len(dst); p++ {
		var accR, accI float64
		xs := x[p : p+len(tpl) : p+len(tpl)]
		for j, c := range tpl {
			x := xs[j]
			xr, xi := real(x), imag(x)
			cr, ci := real(c), imag(c)
			accR += xr*cr - xi*ci
			accI += xr*ci + xi*cr
		}
		dst[p] = complex(accR, accI)
	}
}

// osBlock is OverlapSave's transform size. The one-call simd.FFT kernel
// costs less per point at 512 than at 1024, where the working set
// starts to spill L1 (DESIGN.md §8).
const osBlock = 512

// OverlapSave is ConvolveInto for one fixed tap set, computed by
// overlap-save FFT convolution: each osBlock-point block of input
// yields osBlock−len(h)+1 outputs. The output is ConvolveInto's in exact
// arithmetic but not bit for bit; DESIGN.md §8.1 bounds the difference.
// Immutable after NewOverlapSave and safe for concurrent use.
type OverlapSave struct {
	h    []float64
	spec []complex128 // DFT of h zero-padded to osBlock, scaled by 1/osBlock
	plan *Plan
}

// NewOverlapSave builds the filter spectrum of taps h, 1 ≤ len(h) ≤
// osBlock/2. The spectrum stays complex: a windowed design such as
// LowpassFIR is symmetric only to within rounding.
func NewOverlapSave(h []float64) (*OverlapSave, error) {
	if len(h) == 0 || len(h) > osBlock/2 {
		return nil, fmt.Errorf("signal: overlap-save takes 1 to %d taps, got %d", osBlock/2, len(h))
	}
	plan, err := PlanFor(osBlock)
	if err != nil {
		return nil, err
	}
	spec := make([]complex128, osBlock)
	for i, v := range h {
		spec[i] = complex(v, 0)
	}
	if err := plan.FFT(spec); err != nil {
		return nil, err
	}
	for i, v := range spec {
		spec[i] = complex(real(v)/osBlock, imag(v)/osBlock)
	}
	return &OverlapSave{h: slices.Clone(h), spec: spec, plan: plan}, nil
}

// FilterInto writes the len(x) "same"-aligned outputs of ConvolveInto(dst,
// x, h) to dst[:len(x)] (reallocated only when dst is too small), with
// its one block buffer from a, so a warm arena makes the call
// allocation-free. dst must not overlap x.
//
// Block b produces outputs k0 = b·step up to k0+step−1: its window is
// x[k0−(m−1−delay):] for osBlock samples, zero outside x, which
// reproduces ConvolveInto's dropped edge taps. Outputs m−1 onwards of the
// circular convolution are free of wrap-around. A block with any
// non-finite output (an Inf or NaN input sample, or overflow) is
// recomputed by the direct Go definition, so a hostile sample reaches
// the same len(h) outputs it does in ConvolveInto, bit for bit.
func (f *OverlapSave) FilterInto(dst, x []complex128, a *Arena) []complex128 {
	if len(x) == 0 {
		return dst[:0]
	}
	if cap(dst) < len(x) {
		dst = make([]complex128, len(x))
	}
	dst = dst[:len(x)]
	m := len(f.h)
	lead := m - 1 - (m-1)/2
	step := osBlock - (m - 1)
	buf := a.ComplexUninit(osBlock)
	p := f.plan // buf is the plan's size, so its length checks are skipped
	for k0 := 0; k0 < len(x); k0 += step {
		k1 := min(k0+step, len(x))
		s := k0 - lead
		lo, hi := max(s, 0), min(s+osBlock, len(x))
		clear(buf[:lo-s])
		copy(buf[lo-s:], x[lo:hi])
		clear(buf[hi-s:])
		p.transform(buf, p.fwd, p.fwdK) // Plan.FFT
		mulSpectrum(buf, f.spec)
		p.transform(buf, p.inv, p.invK) // Plan.InverseRaw
		if !copyFinite(dst[k0:k1], buf[m-1:]) {
			convolveRange(dst, x, f.h, k0, k1)
		}
	}
	return dst
}

// mulSpectrum multiplies x by s bin for bin: simd.Mul when dispatched,
// else mulSpectrumGo, its definition.
func mulSpectrum(x, s []complex128) {
	x, s = x[:osBlock], s[:osBlock]
	if simd.Enabled() {
		simd.Mul(x, x, s)
		return
	}
	mulSpectrumGo(x, s)
}

// mulSpectrumGo is simd.Mul's definition on one block, four bins a pass
// (osBlock is a multiple of four) so the compiler drops the bounds
// checks.
func mulSpectrumGo(x, s []complex128) {
	x, s = x[:osBlock], s[:osBlock]
	for i := 0; i < osBlock; i += 4 {
		x[i] *= s[i]
		x[i+1] *= s[i+1]
		x[i+2] *= s[i+2]
		x[i+3] *= s[i+3]
	}
}

// copyFinite copies src into dst and reports whether every copied value
// is finite. The check sums the values: the sum is non-finite when any
// term is, and a finite sum that overflows only costs a needless
// fallback.
func copyFinite(dst, src []complex128) bool {
	src = src[:len(dst)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+2 <= len(dst); i += 2 {
		a, b := src[i], src[i+1]
		dst[i], dst[i+1] = a, b
		s0 += real(a)
		s1 += imag(a)
		s2 += real(b)
		s3 += imag(b)
	}
	for ; i < len(dst); i++ {
		dst[i] = src[i]
		s0 += real(src[i]) + imag(src[i])
	}
	s := s0 + s1 + s2 + s3
	return s-s == 0
}
