// Package decoder extracts tag data from a pair of decoded bit/symbol
// streams: the excitation stream (known to the transmitter, or decoded by
// receiver 1) and the backscattered stream decoded by receiver 2 on the
// adjacent channel. Per Table 1 of the paper, the tag data is the XOR of
// the two codeword streams; with redundancy (one tag bit spread over
// several PHY symbols, §3.2.1–§3.2.2) each window is collapsed by majority
// vote, which also absorbs the boundary errors the convolutional decoder
// makes at tag-bit transitions.
package decoder

import "fmt"

// XORDecode implements Table 1 for a single codeword pair: the tag bit is 1
// exactly when the backscattered codeword differs from the excitation
// codeword.
func XORDecode(excitation, backscattered byte) byte {
	if excitation == backscattered {
		return 0
	}
	return 1
}

// WindowResult carries one decoded tag bit and its decision quality. Every
// window rule returns one WindowResult per decoded tag bit: one per window
// for the binary rules, two per window (the rotation index's bit pair) for
// the quaternary ones.
type WindowResult struct {
	Bit byte
	// MismatchFraction is the fraction of the window's units that disagree
	// with the no-change hypothesis: for the binary rules the positions
	// where the streams (or a window and its predecessor) differ — near 0
	// for tag bit 0, near 1 for tag bit 1 (WiFi/Bluetooth) or near the
	// codebook's confusion floor (ZigBee), with values near the threshold
	// marking an unreliable decision. For the quaternary rules it is the
	// fraction of units (subcarrier bit pairs, or rotation features) that
	// do not match rotation step 0, shared by the window's two bits.
	MismatchFraction float64
}

// slice is the binary rules' threshold decision: a mismatch fraction above
// threshold decodes as 1.
func slice(frac, threshold float64) byte {
	if frac > threshold {
		return 1
	}
	return 0
}

// DecodeWindows compares two aligned streams element-wise in windows of the
// given size and returns one tag bit per complete window. Elements are
// compared for equality, so the same routine serves bit streams (WiFi,
// Bluetooth) and 4-bit symbol streams (ZigBee). The threshold is the
// mismatch fraction above which a window decodes as tag bit 1; 0.5 suits
// clean complementing translations, while ZigBee uses a lower threshold
// because an inverted chip sequence decodes to a *different* symbol only
// with the codebook's confusion margin.
//
// The second return value is the dropped-element count: the elements of
// the longer stream beyond the common length, which had no counterpart to
// compare against. Aligned streams report 0; a nonzero value means the
// two receivers disagreed on the stream length and the comparison covered
// only the common prefix. (Tail elements that do not fill a complete
// window are inherent to windowing and are not counted.)
func DecodeWindows(ref, rx []byte, window int, threshold float64) ([]WindowResult, int, error) {
	if window <= 0 {
		return nil, 0, fmt.Errorf("decoder: window %d must be positive", window)
	}
	if threshold <= 0 || threshold >= 1 {
		return nil, 0, fmt.Errorf("decoder: threshold %g outside (0,1)", threshold)
	}
	n := len(ref)
	dropped := len(rx) - n
	if len(rx) < n {
		n = len(rx)
		dropped = len(ref) - n
	}
	out := make([]WindowResult, 0, n/window)
	for lo := 0; lo+window <= n; lo += window {
		mism := 0
		for i := lo; i < lo+window; i++ {
			if ref[i] != rx[i] {
				mism++
			}
		}
		frac := float64(mism) / float64(window)
		out = append(out, WindowResult{Bit: slice(frac, threshold), MismatchFraction: frac})
	}
	return out, dropped, nil
}

// Bits extracts just the tag bits from a window result slice.
func Bits(ws []WindowResult) []byte {
	out := make([]byte, len(ws))
	for i, w := range ws {
		out[i] = w.Bit
	}
	return out
}

// rotateGrayPair applies a 90°·k constellation rotation to a Gray-mapped
// QPSK bit pair (b0 → I sign, b1 → Q sign): multiplying the point by j maps
// (b0, b1) → (¬b1, b0).
func rotateGrayPair(b0, b1 byte, k int) (byte, byte) {
	for i := 0; i < k; i++ {
		b0, b1 = b1^1, b0
	}
	return b0, b1
}

// DecodeQuaternaryWindows implements the eq. 5 decoder for QPSK excitation:
// ref and rx are *demapped coded* bit streams (subcarrier bit pairs, before
// Viterbi decoding — convolutional decoding scrambles 90° rotations beyond
// recognition, so this decoder needs monitor-mode access to raw coded
// bits). For each window it tests the four rotation hypotheses against the
// reference and emits the two tag bits of the best match (see
// appendRotation).
func DecodeQuaternaryWindows(ref, rx []byte, windowBits int) ([]WindowResult, error) {
	if windowBits <= 0 || windowBits%2 != 0 {
		return nil, fmt.Errorf("decoder: window %d must be positive and even", windowBits)
	}
	n := len(ref)
	if len(rx) < n {
		n = len(rx)
	}
	out := make([]WindowResult, 0, 2*(n/windowBits))
	for lo := 0; lo+windowBits <= n; lo += windowBits {
		var matches [4]int
		for i := lo; i+1 < lo+windowBits; i += 2 {
			for k := 0; k < 4; k++ {
				e0, e1 := rotateGrayPair(ref[i]&1, ref[i+1]&1, k)
				if rx[i]&1 == e0 && rx[i+1]&1 == e1 {
					matches[k]++
				}
			}
		}
		out, _ = appendRotation(out, &matches, 0, windowBits/2)
	}
	return out, nil
}

// appendRotation is the quaternary rules' decision: matches counts the
// window's units that agree with each rotation step d, k0 is the rotation
// the window's steps start from (0 for the dual rule, the accumulated
// rotation for the differential one), and units is the window's unit
// count. The winning step d moves the rotation to k = (k0+d) mod 4, whose
// binary expansion is the window's tag bit pair (k>>1, k&1): one
// WindowResult per bit is appended, k>>1 first, and k is returned.
func appendRotation(out []WindowResult, matches *[4]int, k0, units int) ([]WindowResult, int) {
	best := 0
	for d := 1; d < 4; d++ {
		if matches[d] > matches[best] {
			best = d
		}
	}
	k := (k0 + best) & 3
	frac := float64(units-matches[0]) / float64(units)
	out = append(out,
		WindowResult{Bit: byte(k>>1) & 1, MismatchFraction: frac},
		WindowResult{Bit: byte(k) & 1, MismatchFraction: frac})
	return out, k
}

// BER compares sent and decoded tag bits, returning errors, total
// compared (the shorter length), and the dropped-element count — the
// excess of the longer input that had no counterpart. A nonzero dropped
// means the comparison covered only a prefix and the reported error count
// understates the true bit errors.
func BER(sent, decoded []byte) (errors, total, dropped int) {
	n := len(sent)
	if len(decoded) < n {
		n = len(decoded)
	}
	dropped = len(sent) + len(decoded) - 2*n
	for i := 0; i < n; i++ {
		if sent[i]&1 != decoded[i]&1 {
			errors++
		}
	}
	return errors, n, dropped
}
