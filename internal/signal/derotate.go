package signal

import (
	"math"

	"repro/internal/simd"
)

// RotorBlock is the number of samples that share one block-base phasor
// in Derotate: RotorBlock/simd.RotateRun hops of simd.RotateRun samples.
// A rotation done in parts meets Derotate's phasors only at part
// boundaries that are multiples of it.
const RotorBlock = 1024

// Derotate writes src with a frequency offset of cfo Hz removed into
// dst[:len(src)], with the phase reference at index 0 of the sequence
// src continues: src[k] is sample first+k, and first must be a multiple
// of RotorBlock. Rotating x[:a] with first 0 and then x[a:] with first a
// (a a multiple of RotorBlock) writes exactly what rotating x whole
// does, which is how the channel shifts a capture it fills in parts.
// dst may be src itself (in place) but must not otherwise overlap it. A
// zero offset (either sign) copies.
//
// Each sample's phasor is built from its index, not carried from the
// previous sample: with ω = −2π·cfo/rate and i = 1024·b + 64·m + k, it
// is the product
//
//	(base_b · hop_m) · off_k
//
// of math.Sincos at the exact-index arguments ω·float64(1024·b),
// ω·float64(64·m) and ω·float64(k), one base per 1024 samples and
// tables of at most 16 hops and 64 offsets per call. The phase error
// stays within a few units of 2⁻⁵²·max(1, |ω·i|) at every index
// (TestDerotateExactPhase) instead of growing along the capture, no
// renormalisation is needed, and the samples are independent, so the
// per-sample products vectorise (simd.Rotate, one call per 1024-sample
// block; rotateGo is its definition).
//
// The channel shifts each part of a capture it fills by Derotate with
// the offset negated, and the wifi and zigbee receivers correct CFO
// through it, so CFO injection and correction share one rotor.
func Derotate(dst, src []complex128, first int, cfo, rate float64) {
	if first%RotorBlock != 0 {
		panic("signal: Derotate's first sample is not a multiple of RotorBlock")
	}
	if cfo == 0 {
		copy(dst, src)
		return
	}
	n := len(src)
	dst = dst[:n]
	w := -2 * math.Pi * cfo / rate
	var off [simd.RotateRun]complex128
	for k := range min(n, len(off)) {
		off[k] = phasor(w * float64(k))
	}
	var hop [RotorBlock / simd.RotateRun]complex128
	hops := min((n+simd.RotateRun-1)/simd.RotateRun, len(hop))
	for m := range hops {
		hop[m] = phasor(w * float64(simd.RotateRun*m))
	}
	var runs [len(hop)]complex128
	for b := 0; b < n; b += RotorBlock {
		base := phasor(w * float64(first+b))
		end := min(b+RotorBlock, n)
		for m := range (end - b + simd.RotateRun - 1) / simd.RotateRun {
			runs[m] = base * hop[m]
		}
		if simd.Enabled() {
			simd.Rotate(dst[b:end], src[b:end], runs[:], &off)
		} else {
			rotateGo(dst[b:end], src[b:end], &runs, &off)
		}
	}
}

// phasor is exp(j·theta) from one math.Sincos.
func phasor(theta float64) complex128 {
	sin, cos := math.Sincos(theta)
	return complex(cos, sin)
}

// rotateGo is simd.Rotate's definition for one block of at most
// RotorBlock samples.
func rotateGo(dst, src []complex128, runs *[RotorBlock / simd.RotateRun]complex128, off *[simd.RotateRun]complex128) {
	for i, v := range src {
		r := runs[i/simd.RotateRun] * off[i%simd.RotateRun]
		dst[i] = v * r
	}
}
