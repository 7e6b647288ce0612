// Package bits provides bit-stream primitives shared by the PHY layers:
// packing between bytes and bit slices, the redundancy repetition a tag
// applies, and the CRC variants used by 802.11 (CRC-32), 802.15.4 (CRC-16)
// and BLE (CRC-24).
//
// Throughout the module a "bit slice" is a []byte whose elements are 0 or 1,
// least-significant bit of each data byte first, matching the over-the-air
// bit order of all three PHYs.
package bits

import "fmt"

// FromBytes expands data into a bit slice, LSB of each byte first.
func FromBytes(data []byte) []byte {
	out := make([]byte, 0, len(data)*8)
	for _, b := range data {
		for i := 0; i < 8; i++ {
			out = append(out, (b>>uint(i))&1)
		}
	}
	return out
}

// ToBytes packs a bit slice (LSB first) back into bytes. The bit slice
// length must be a multiple of 8.
func ToBytes(bs []byte) ([]byte, error) {
	if len(bs)%8 != 0 {
		return nil, fmt.Errorf("bits: length %d not a multiple of 8", len(bs))
	}
	out := make([]byte, len(bs)/8)
	for j := range out {
		// Pack eight bits with one store instead of a read-modify-write
		// per bit. The OR of the group exceeds 1 exactly when some element
		// does; the rescan then reports the first offender with the same
		// error the per-bit loop produced.
		g := bs[j*8 : j*8+8]
		b0, b1, b2, b3 := g[0], g[1], g[2], g[3]
		b4, b5, b6, b7 := g[4], g[5], g[6], g[7]
		if b0|b1|b2|b3|b4|b5|b6|b7 > 1 {
			for i, b := range bs[j*8:] {
				if b > 1 {
					return nil, fmt.Errorf("bits: element %d is %d, want 0 or 1", j*8+i, b)
				}
			}
		}
		out[j] = b0 | b1<<1 | b2<<2 | b3<<3 | b4<<4 | b5<<5 | b6<<6 | b7<<7
	}
	return out, nil
}

// Repeat expands each bit n times, the redundancy mapping a FreeRider tag
// applies before modulating (one tag bit spans several PHY symbols).
func Repeat(bs []byte, n int) []byte {
	if n <= 0 {
		return nil
	}
	out := make([]byte, 0, len(bs)*n)
	for _, b := range bs {
		for i := 0; i < n; i++ {
			out = append(out, b&1)
		}
	}
	return out
}
