package decoder

import "fmt"

// Differential (single-receiver) decode: the Double-decker decision rule.
//
// The dual-receiver decoder (DecodeWindows) compares the backscattered
// stream against the clean excitation stream reported by a second
// receiver. With only one receiver there is no reference, so the decision
// must be self-referenced: the PHY layer extracts a per-unit *flip
// feature* from the backscattered capture alone (pilot-correlation phase
// for OFDM, complemented-codebook correlation for DSSS, in-band power for
// FSK — see core's single-receiver paths), and the decoder compares each
// window of features against its predecessor. A window that looks like
// its predecessor carries the same tag bit; a window that disagrees marks
// a transition. Tag bits are then the cumulative XOR of the transition
// stream, anchored at the untranslated header: the tag leaves preamble
// and header units untouched, so the state before window 0 is known to be
// "no flip", which the implicit all-zero predecessor of window 0 encodes.
//
// The price of self-reference is transition-error propagation: one wrong
// transition decision inverts every later bit until the next wrong one
// cancels it. The BER-vs-SNR experiment quantifies that sensitivity cost
// against the dual-receiver rule; the RS-coded retransmission ladder above
// this layer composes unchanged because it reads only the hard bits.

// DecodeDifferentialWindows recovers tag bits from a single receiver's
// binary flip-feature stream: rx holds one 0/1 feature per PHY unit
// (OFDM symbol, DSSS symbol, FSK bit), and each complete window of
// `window` features is compared element-wise against the previous window
// (window 0 against an implicit all-zero window — the untranslated
// header state). A disagreement fraction above threshold decodes as a
// transition, and the tag bit is the running XOR of transitions.
//
// WindowResult.MismatchFraction is the window's disagreement fraction
// against its predecessor: the *local* transition decision, so the
// running XOR of (MismatchFraction > threshold) reproduces Bit.
func DecodeDifferentialWindows(rx []byte, window int, threshold float64) ([]WindowResult, error) {
	if window <= 0 {
		return nil, fmt.Errorf("decoder: window %d must be positive", window)
	}
	if threshold <= 0 || threshold >= 1 {
		return nil, fmt.Errorf("decoder: threshold %g outside (0,1)", threshold)
	}
	out := make([]WindowResult, 0, len(rx)/window)
	bit := byte(0)
	for lo := 0; lo+window <= len(rx); lo += window {
		diff := 0
		for i := lo; i < lo+window; i++ {
			var prev byte
			if lo >= window {
				prev = rx[i-window] & 1
			}
			if rx[i]&1 != prev {
				diff++
			}
		}
		frac := float64(diff) / float64(window)
		bit ^= slice(frac, threshold)
		out = append(out, WindowResult{Bit: bit, MismatchFraction: frac})
	}
	return out, nil
}

// DecodeDifferentialQuaternaryWindows is the eq. 5 self-referenced
// decoder: rx holds one rotation-feature index (0..3, the quantised
// pilot-correlation phase in quarter turns) per OFDM symbol, and each
// window of `window` features is tested against the four rotation-delta
// hypotheses relative to its predecessor (window 0 against the implicit
// all-zero header state). The winning delta advances the accumulated
// rotation k, whose binary expansion is the window's two tag bits, exactly
// as in the dual-receiver DecodeQuaternaryWindows (see appendRotation).
func DecodeDifferentialQuaternaryWindows(rx []byte, window int) ([]WindowResult, error) {
	if window <= 0 {
		return nil, fmt.Errorf("decoder: window %d must be positive", window)
	}
	out := make([]WindowResult, 0, 2*(len(rx)/window))
	k := 0
	for lo := 0; lo+window <= len(rx); lo += window {
		var matches [4]int
		for i := lo; i < lo+window; i++ {
			var prev byte
			if lo >= window {
				prev = rx[i-window] & 3
			}
			for d := 0; d < 4; d++ {
				if rx[i]&3 == (prev+byte(d))&3 {
					matches[d]++
				}
			}
		}
		out, k = appendRotation(out, &matches, k, window)
	}
	return out, nil
}
