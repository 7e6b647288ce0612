package wifi

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// The 802.11 convolutional code: constraint length 7, generator polynomials
// g0 = 133 (octal) and g1 = 171 (octal). FreeRider's equation 9 is exactly
// this code at rate 1/2; higher rates puncture the 1/2 stream.
const (
	genA      = 0o133
	genB      = 0o171
	numStates = 64
)

// parity7 returns the parity of the low 7 bits of x.
func parity7(x int) byte {
	x &= 0x7F
	x ^= x >> 4
	x ^= x >> 2
	x ^= x >> 1
	return byte(x & 1)
}

// convEncodeInto appends the rate-1/2 encoding of in to dst. The caller
// is responsible for appending the 6 zero tail bits before encoding.
// Output is A0 B0 A1 B1 ... (interleaved coded streams, as 802.11
// transmits them).
//
// Eight input bits go at a time: the code is linear over GF(2), so the
// 16 coded bits of a byte are convStateOut[state] ^ convByteOut[x], the
// state's zero-input response plus the byte's zero-state response, and
// the next state is the byte's last six bits. The remainder runs
// convEncodeBit, the bit-at-a-time definition.
func convEncodeInto(dst, in []byte) []byte {
	n := len(dst)
	dst = slices.Grow(dst, 2*len(in))[:n+2*len(in)]
	out := dst[n:]
	state, i := 0, 0
	for ; i+8 <= len(in); i += 8 {
		// Bit 0 of each of the 8 input bytes, gathered into x with
		// in[i+j] at bit j: the multiply moves byte j's bit 0 to bit 56+j
		// and every other partial product to a distinct bit elsewhere.
		v := binary.LittleEndian.Uint64(in[i:])
		x := int((v & 0x0101010101010101) * 0x0102040810204080 >> 56)
		w := convStateOut[state] ^ convByteOut[x]
		binary.LittleEndian.PutUint64(out[2*i:], convSpread[w&0xFF])
		binary.LittleEndian.PutUint64(out[2*i+8:], convSpread[w>>8])
		state = x >> 2
	}
	for ; i < len(in); i++ {
		out[2*i], out[2*i+1], state = convEncodeBit(state, in[i])
	}
	return dst
}

// convEncodeBit encodes one input bit (bit 0 of b) from state: the
// coded pair A, B and the next state.
func convEncodeBit(state int, b byte) (a, bb byte, next int) {
	reg := ((int(b) & 1) << 6) | state
	return parity7(reg & genA), parity7(reg & genB), reg >> 1
}

// convStateOut[s] holds the 16 coded bits state s yields over 8 zero
// input bits, and convByteOut[x] those input byte x (bit j the j-th
// input) yields from state 0, in output order from bit 0 (A0 B0 A1 B1 …).
var convStateOut, convByteOut = buildConvTables()

func buildConvTables() (st [numStates]uint16, by [256]uint16) {
	run := func(state, x int) (w uint16) {
		for j := 0; j < 8; j++ {
			var a, b byte
			a, b, state = convEncodeBit(state, byte(x>>j))
			w |= uint16(a)<<(2*j) | uint16(b)<<(2*j+1)
		}
		return w
	}
	for s := range st {
		st[s] = run(s, 0)
	}
	for x := range by {
		by[x] = run(0, x)
	}
	return st, by
}

// convSpread[v] has bit k of v in byte k: eight coded bits as bytes.
var convSpread = func() (t [256]uint64) {
	for v := range t {
		for k := 0; k < 8; k++ {
			t[v] |= uint64(v>>k&1) << (8 * k)
		}
	}
	return t
}()

// puncture patterns: for each period position, whether the A and B bits are
// kept. 802.11 §17.3.5.6. Indexed by the CodingRate constants (an array,
// not a map — puncturing runs per coded bit on the hot path).
var punctureKeep = [3][][2]bool{
	Rate1_2: {{true, true}},
	// 2/3: period 2 input bits -> keep A0 B0 A1 (drop B1).
	Rate2_3: {{true, true}, {true, false}},
	// 3/4: period 3 input bits -> keep A0 B0 A1 B2 (drop B1, A2).
	Rate3_4: {{true, true}, {true, false}, {false, true}},
}

// puncturePattern returns the keep pattern for a coding rate, nil when the
// rate is unknown (preserving the old map-lookup miss behaviour).
func puncturePattern(r CodingRate) [][2]bool {
	if r < 0 || int(r) >= len(punctureKeep) {
		return nil
	}
	return punctureKeep[r]
}

// punctureInto appends to dst the bits of the rate-1/2 stream coded
// (pairs A,B per input bit) that the 802.11 puncturing pattern for rate r
// keeps.
func punctureInto(dst, coded []byte, r CodingRate) ([]byte, error) {
	pattern := puncturePattern(r)
	if pattern == nil {
		return nil, fmt.Errorf("wifi: unknown coding rate %v", r)
	}
	for i := 0; i*2 < len(coded); i++ {
		keep := pattern[i%len(pattern)]
		if keep[0] {
			dst = append(dst, coded[2*i])
		}
		if keep[1] {
			dst = append(dst, coded[2*i+1])
		}
	}
	return dst, nil
}

// expectEAB[s<<1|in] packs the expected coded pair (A<<1 | B) for the
// transition out of state s with input bit in. Computed once: the trellis
// never changes.
var expectEAB = buildExpectEAB()

func buildExpectEAB() (t [numStates * 2]byte) {
	for s := 0; s < numStates; s++ {
		for in := 0; in < 2; in++ {
			reg := (in << 6) | s
			t[s<<1|in] = parity7(reg&genA)<<1 | parity7(reg&genB)
		}
	}
	return t
}

// bfExpect[k] is the expected coded pair (A<<1|B) for the transition out of
// state 2k under input 0. Both generator polynomials have bits 0 and 6 set,
// so the other three transitions of the butterfly are XOR-3 images of it:
// state 2k+1 flips both coded bits (bit 0 of the register feeds both
// parities), and input 1 flips both again (bit 6 does too). Each trellis
// step therefore needs only two distinct branch costs per butterfly.
var bfExpect = buildBFExpect()

func buildBFExpect() (t [numStates / 2]byte) {
	for k := range t {
		t[k] = expectEAB[(2*k)<<1] & 3
	}
	return t
}
