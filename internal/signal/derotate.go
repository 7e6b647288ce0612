package signal

import (
	"math"
	"math/cmplx"
)

// Derotate writes src with a frequency offset of cfo Hz removed into
// dst[:len(src)], with the phase reference at index 0. dst may be src
// itself (in place) but must not otherwise overlap it. The rotation
// phasor is advanced by a single complex multiply per sample (all trig
// hoisted out of the loop) and renormalised every 1024 samples against
// magnitude drift; a zero offset copies.
//
// Bit-identity: this is the exact recurrence the wifi and zigbee receivers
// historically inlined; both now call it, as does the channel's
// Signal.FrequencyShift (with the offset negated), so CFO correction and
// injection stay bit-for-bit identical across radios. Writing to a
// separate dst keeps every product: dst[i] = src[i]·rot is the in-place
// x[i] *= rot.
func Derotate(dst, src []complex128, cfo, rate float64) {
	if cfo == 0 {
		copy(dst, src)
		return
	}
	step := cmplx.Exp(complex(0, -2*math.Pi*cfo/rate))
	rot := complex(1, 0)
	// Block form of the historical per-sample loop: the renorm fires only at
	// i ≡ 1023 (mod 1024), so each 1024-sample run executes the same
	// multiply/advance sequence with the boundary test hoisted out of the
	// inner loop. Operations and their order are unchanged — the renorm
	// still happens right after the boundary sample's rot advance.
	n := len(src)
	dst = dst[:n]
	for i := 0; i < n; {
		end := (i | 0x3FF) + 1
		boundary := end <= n
		if !boundary {
			end = n
		}
		in, out := src[i:end], dst[i:end]
		for j, v := range in {
			out[j] = v * rot
			rot *= step
		}
		i = end
		if boundary {
			rot /= complex(cmplx.Abs(rot), 0)
		}
	}
}
