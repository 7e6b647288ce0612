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

// SoftScale is the magnitude of a full-confidence soft decision: Soft
// values live in [-SoftScale, SoftScale], positive meaning tag bit 0 and
// negative tag bit 1, with |Soft| the normalized decision margin. The
// chase ladder in internal/fec (fec.Chase) accumulates these values
// directly and slices their sum by sign, so only the sign convention binds
// it; the scale sets the int32 accumulator's headroom.
const SoftScale = 1024

// softFor converts a decision (bit, normalized margin in [0,1]) to the
// int16 soft convention. A decided 1 is clamped to at most -1 so that
// re-slicing a single attempt's soft values (sign test, ties to 0) always
// reproduces the hard decision — zero-margin 1s must not collapse to 0.
func softFor(bit byte, margin float64) int16 {
	s := int16(margin * SoftScale)
	if s > SoftScale {
		s = SoftScale
	}
	if bit == 0 {
		return s
	}
	if s < 1 {
		s = 1
	}
	return -s
}

// WindowResult carries one decoded tag bit and its decision quality.
type WindowResult struct {
	Bit byte
	// MismatchFraction is the fraction of positions in the window where the
	// streams disagree: near 0 for tag bit 0, near 1 for tag bit 1 (WiFi/
	// Bluetooth) or near the codebook's confusion floor (ZigBee). Values
	// near 0.5 indicate an unreliable decision.
	MismatchFraction float64
	// Soft is the int16 soft decision (see SoftScale): the signed distance
	// of MismatchFraction from the slicing threshold, normalized to the
	// span on the decided side. Re-slicing Soft alone (negative → 1)
	// reproduces Bit exactly.
	Soft int16
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
		bit := byte(0)
		margin := (threshold - frac) / threshold
		if frac > threshold {
			bit = 1
			margin = (frac - threshold) / (1 - threshold)
		}
		out = append(out, WindowResult{Bit: bit, MismatchFraction: frac, Soft: softFor(bit, margin)})
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

// Soft extracts the int16 soft decisions from a window result slice.
func Soft(ws []WindowResult) []int16 {
	out := make([]int16, len(ws))
	for i, w := range ws {
		out[i] = w.Soft
	}
	return out
}

// QuaternaryDecode recovers 2-bit tag symbols from the eq. 5 scheme, where
// the tag applies k·Δθ (k = 0..3) per window: k's binary expansion is the
// tag bit pair.
func QuaternaryDecode(k int) ([2]byte, error) {
	if k < 0 || k > 3 {
		return [2]byte{}, fmt.Errorf("decoder: rotation index %d outside 0..3", k)
	}
	return [2]byte{byte(k >> 1), byte(k & 1)}, nil
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

// QuaternaryWindowResult carries one decoded 2-bit tag symbol.
type QuaternaryWindowResult struct {
	Bits [2]byte // eq. 5 tag bits for this window: the detected k's bit pair
	// Soft is the per-bit soft decision pair (see SoftScale). Each bit's
	// margin is the winning hypothesis's match count against the best
	// rotation hypothesis that decodes that bit to the opposite value —
	// NOT the overall runner-up, which may agree on the bit.
	Soft [2]int16
}

// DecodeQuaternaryWindows implements the eq. 5 decoder for QPSK excitation:
// ref and rx are *demapped coded* bit streams (subcarrier bit pairs, before
// Viterbi decoding — convolutional decoding scrambles 90° rotations beyond
// recognition, so this decoder needs monitor-mode access to raw coded
// bits). For each window it tests the four rotation hypotheses against the
// reference and emits the 2-bit tag symbol of the best match.
func DecodeQuaternaryWindows(ref, rx []byte, windowBits int) ([]QuaternaryWindowResult, error) {
	if windowBits <= 0 || windowBits%2 != 0 {
		return nil, fmt.Errorf("decoder: window %d must be positive and even", windowBits)
	}
	n := len(ref)
	if len(rx) < n {
		n = len(rx)
	}
	out := make([]QuaternaryWindowResult, 0, n/windowBits)
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
		best := 0
		for k := 1; k < 4; k++ {
			if matches[k] > matches[best] {
				best = k
			}
		}
		bits, err := QuaternaryDecode(best)
		if err != nil {
			return nil, err
		}
		// Per-bit soft: margin against the strongest hypothesis that
		// decodes this bit position to the opposite value. An exact tie
		// (margin 0) keeps its decided value via the ±1 clamp in softFor.
		var soft [2]int16
		pairs := windowBits / 2
		for b := 0; b < 2; b++ {
			v := bits[b]
			opp := 0
			for k := 0; k < 4; k++ {
				kb := byte(k>>uint(1-b)) & 1
				if kb != v && matches[k] > opp {
					opp = matches[k]
				}
			}
			margin := float64(matches[best]-opp) / float64(pairs)
			soft[b] = softFor(v, margin)
		}
		out = append(out, QuaternaryWindowResult{Bits: bits, Soft: soft})
	}
	return out, nil
}

// QuaternaryBits flattens window results into the tag bit stream.
func QuaternaryBits(ws []QuaternaryWindowResult) []byte {
	out := make([]byte, 0, 2*len(ws))
	for _, w := range ws {
		out = append(out, w.Bits[0], w.Bits[1])
	}
	return out
}

// QuaternarySoft flattens window results into the per-bit soft stream,
// aligned index-for-index with QuaternaryBits.
func QuaternarySoft(ws []QuaternaryWindowResult) []int16 {
	out := make([]int16, 0, 2*len(ws))
	for _, w := range ws {
		out = append(out, w.Soft[0], w.Soft[1])
	}
	return out
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
