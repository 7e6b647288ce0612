// Package fec is the coded tag uplink: a Reed-Solomon code over GF(2^8)
// applied to tag payload chunks. GuardRider (arXiv:1912.06493) measured
// raw codeword-translation uplinks to be unusable in the wild without FEC;
// this package supplies the code that freerider.Send's retransmission
// ladder decodes each received copy of a chunk with (Layout.DecodeBits on
// that copy's hard decisions alone).
//
// The code is systematic RS(n, k) over GF(2^8) with the 0x11d field
// polynomial, shortened per chunk: Config names reference dimensions
// (default the CCSDS-flavoured RS(255, 223)) and LayoutFor scales the
// parity share down to the handful of symbols a single excitation packet
// carries, optionally interleaving several codewords across the chunk so a
// burst of adjacent window errors lands on different codewords.
//
// Everything here is a pure function of its inputs — no RNG, no clocks —
// so coded sessions inherit the repo's bit-identical parallelism for free.
package fec

// GF(2^8) arithmetic with the 0x11d (x^8+x^4+x^3+x^2+1) reduction
// polynomial and generator element α = 2. expTab is doubled so products of
// logs never need a mod-255 reduction.
var (
	expTab [512]byte
	logTab [256]int16
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTab[i] = byte(x)
		logTab[x] = int16(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= 0x11d
		}
	}
	for i := 255; i < 512; i++ {
		expTab[i] = expTab[i-255]
	}
}

// gfMul multiplies two field elements.
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTab[int(logTab[a])+int(logTab[b])]
}

// gfDiv divides a by b; b must be nonzero.
func gfDiv(a, b byte) byte {
	if a == 0 {
		return 0
	}
	return expTab[int(logTab[a])-int(logTab[b])+255]
}

// gfPow returns α^n for n >= 0.
func gfPow(n int) byte { return expTab[n%255] }
