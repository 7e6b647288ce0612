package signal

import (
	"fmt"
	"math"

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
