package wifi

import (
	"math"
	"math/cmplx"

	"repro/internal/signal"
)

// estimateCFOFromLTF returns the carrier frequency offset in Hz estimated
// from the phase progression between the two identical 64-sample long
// training symbols (samples are the 160-sample LTF region). The
// unambiguous range is ±(SampleRate/64)/2 = ±156 kHz, well beyond the
// 802.11 ±20 ppm tolerance.
func estimateCFOFromLTF(ltf []complex128) float64 {
	var acc complex128
	for i := 0; i < FFTSize; i++ {
		acc += ltf[32+FFTSize+i] * cmplx.Conj(ltf[32+i])
	}
	if acc == 0 {
		return 0
	}
	return cmplx.Phase(acc) / (2 * math.Pi * float64(FFTSize)) * SampleRate
}

// refineCFOFromCP averages the cyclic-prefix correlation of every OFDM
// symbol in the data region: each CP is a copy of its symbol's tail 64
// samples earlier, so the correlation phase measures residual CFO. Because
// prefix and tail belong to the same symbol they always share the tag's
// phase state, making this tracker completely insensitive to FreeRider's
// per-symbol-block phase modulation — unlike pilot-based phase tracking,
// which would erase it (§3.2.1).
//
// data is the raw capture, not yet corrected for the coarse offset: a
// coarse derotation would turn every lag-64 product by the same
// exp(−j2π·coarse·64/SampleRate), so the sum is taken on the raw
// samples and multiplied once by that exact phasor. The result is the
// residual left after removing coarse.
func refineCFOFromCP(data []complex128, nSymbols int, coarse float64) float64 {
	var acc complex128
	for s := 0; s < nSymbols; s++ {
		base := s * SymbolLen
		if base+SymbolLen > len(data) {
			break
		}
		for k := 0; k < CPLen; k++ {
			acc += data[base+FFTSize+k] * cmplx.Conj(data[base+k])
		}
	}
	if acc == 0 {
		return 0
	}
	sin, cos := math.Sincos(-2 * math.Pi * coarse * FFTSize / SampleRate)
	acc *= complex(cos, sin)
	return cmplx.Phase(acc) / (2 * math.Pi * float64(FFTSize)) * SampleRate
}

// phaseTracker carries the blind phase-tracking state across data symbols.
type phaseTracker struct {
	prev float64 // unwrapped common phase of the previous symbol
}

// correct estimates and removes the common phase rotation of one symbol's
// equalised data points by constellation squaring: for m-PSK, raising the
// points to the m-th power collapses the modulation, leaving m× the common
// phase. The estimate is ambiguous modulo 2π/m, so it is unwrapped against
// the previous symbol (drift between adjacent symbols is small). Crucially,
// a FreeRider tag's π phase flips are invisible to the squaring (and to
// the unwrapping, which never jumps by π), so this tracker removes
// oscillator drift *without* erasing the tag's modulation — unlike the
// pilot-based tracking of §3.2.1.
func (t *phaseTracker) correct(pts *[NumData]complex128, m Modulation) {
	var order float64
	var offset float64
	switch m {
	case BPSK:
		order = 2 // y² collapses ±1
	case QPSK:
		order, offset = 4, math.Pi // y⁴ of (±1±j)/√2 lands on e^{jπ}
	default:
		return // QAM has no simple power-law collapse; skip
	}
	// Unrolled power accumulation: the multiply chains below are exactly
	// the historical p := y; p *= y; ... left-to-right sequences, so the
	// accumulated estimate is bit-identical.
	var acc complex128
	if order == 2 {
		for _, y := range pts {
			acc += y * y
		}
	} else {
		for _, y := range pts {
			p := y * y
			p *= y
			p *= y
			acc += p
		}
	}
	if acc == 0 {
		return
	}
	raw := (cmplx.Phase(acc) - offset) / order // in (-π/m, π/m]
	period := 2 * math.Pi / order
	theta := raw + period*math.Round((t.prev-raw)/period)
	t.prev = theta
	// cmplx.Exp(0 - jθ) reduces to complex(cos(-θ), sin(-θ)): the real part
	// is exactly 0 (never Inf/NaN), Exp(0) is exactly 1, and 1·c, 1·s are
	// exact — so calling Sincos directly skips a wasted math.Exp per symbol
	// with a bit-identical rotor.
	sin, cos := math.Sincos(-theta)
	signal.ScaleInto(pts[:], pts[:], complex(cos, sin))
}

// derotate writes src with a frequency offset of cfo Hz removed into dst
// (which may be src), with the phase reference at index 0. Each
// sample's phasor comes from its own index (signal.Derotate), so
// derotating a prefix of a region writes the same samples as
// derotating the whole region at the same offset.
func derotate(dst, src []complex128, cfo float64) {
	signal.Derotate(dst, src, 0, cfo, SampleRate)
}
