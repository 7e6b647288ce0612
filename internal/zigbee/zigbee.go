// Package zigbee implements the IEEE 802.15.4 2.4 GHz PHY used by ZigBee at
// complex baseband: nibble-to-32-chip direct-sequence spreading, OQPSK
// modulation with half-sine pulse shaping and a half-chip quadrature offset,
// preamble/SFD framing and CRC-16 FCS, plus a coherent correlation receiver.
//
// FreeRider backscatters ZigBee by rotating the reflected signal's phase
// (§2.3.2); a 180° rotation inverts every chip, which is *not* a codebook
// automorphism for the 16 quasi-orthogonal sequences — the receiver maps the
// inverted sequence to a deterministic wrong symbol with reduced margin.
// That is why the paper reports a higher (~5e-2) raw tag BER for ZigBee and
// spreads one tag bit over N OQPSK symbols.
package zigbee

import (
	"fmt"
	"math/bits"
)

// PHY constants for the 2.4 GHz O-QPSK PHY.
const (
	ChipRate        = 2e6 // chips per second
	SamplesPerChip  = 4   // simulation oversampling
	SampleRate      = ChipRate * SamplesPerChip
	ChipsPerSymbol  = 32
	BitsPerSymbol   = 4
	SymbolRate      = ChipRate / ChipsPerSymbol // 62.5 ksym/s
	BitRate         = SymbolRate * BitsPerSymbol
	SymbolSamples   = ChipsPerSymbol * SamplesPerChip
	PreambleSymbols = 8 // 4 bytes of zeros
	SFD             = 0xA7
	MaxPayload      = 127
	ChannelWidth    = 2e6 // occupied bandwidth, Hz
)

// chip0 is the PN sequence for data symbol 0 (IEEE 802.15.4-2011 table 73),
// chip c0 first.
var chip0 = [ChipsPerSymbol]byte{
	1, 1, 0, 1, 1, 0, 0, 1,
	1, 1, 0, 0, 0, 0, 1, 1,
	0, 1, 0, 1, 0, 0, 1, 0,
	0, 0, 1, 0, 1, 1, 1, 0,
}

// ChipSequences holds the 16 spreading sequences. Symbols 1..7 are symbol 0
// cyclically right-shifted by 4·s chips; symbols 8..15 are symbols 0..7 with
// the odd-indexed (quadrature) chips inverted.
var ChipSequences = buildSequences()

func buildSequences() [16][ChipsPerSymbol]byte {
	var out [16][ChipsPerSymbol]byte
	for s := 0; s < 8; s++ {
		for i := 0; i < ChipsPerSymbol; i++ {
			out[s][i] = chip0[((i-4*s)%ChipsPerSymbol+ChipsPerSymbol)%ChipsPerSymbol]
		}
	}
	for s := 8; s < 16; s++ {
		for i := 0; i < ChipsPerSymbol; i++ {
			c := out[s-8][i]
			if i%2 == 1 {
				c ^= 1
			}
			out[s][i] = c
		}
	}
	return out
}

// SymbolsFromBytes splits bytes into 4-bit symbols, low nibble first
// (§10.2.3 bit ordering).
func SymbolsFromBytes(data []byte) []byte {
	out := make([]byte, 0, len(data)*2)
	for _, b := range data {
		out = append(out, b&0x0F, b>>4)
	}
	return out
}

// BytesFromSymbols reassembles bytes from 4-bit symbols, low nibble first.
func BytesFromSymbols(sym []byte) ([]byte, error) {
	if len(sym)%2 != 0 {
		return nil, fmt.Errorf("zigbee: odd symbol count %d", len(sym))
	}
	out := make([]byte, len(sym)/2)
	for i := range out {
		out[i] = sym[2*i]&0x0F | sym[2*i+1]<<4
	}
	return out, nil
}

// SpreadSymbols expands data symbols into their chip sequences.
func SpreadSymbols(sym []byte) ([]byte, error) {
	out := make([]byte, 0, len(sym)*ChipsPerSymbol)
	for _, s := range sym {
		if s > 15 {
			return nil, fmt.Errorf("zigbee: symbol %d out of range", s)
		}
		out = append(out, ChipSequences[s][:]...)
	}
	return out, nil
}

// chipWords packs each spreading sequence into a word, chip k in bit k,
// so a correlation against all 16 is 16 XOR-popcounts.
var chipWords = func() [16]uint32 {
	var out [16]uint32
	for s, seq := range ChipSequences {
		for k, c := range seq {
			out[s] |= uint32(c) << k
		}
	}
	return out
}()

// bestSymbol decides one symbol from its 32 chip decisions w (chip k in
// bit k). The correlation with sequence s, agreements minus
// disagreements, is 32 − 2·popcount(w ^ chipWords[s]) in [−32, 32];
// best is the first sequence with the highest one, bestC its value, and
// worstC the lowest over the codebook. Complementing every chip negates
// the correlation — corr(r, ~x) = −corr(r, x) — so the best match
// against the *complemented* codebook is exactly −worstC, and
// bestC + worstC < 0 means the window correlates better with a
// complemented sequence than with any true one: the single-receiver
// flip feature for a tag that phase-inverts chips.
func bestSymbol(w uint32) (best byte, bestC, worstC int) {
	bestC, worstC = -ChipsPerSymbol-1, ChipsPerSymbol+1
	for s, seq := range chipWords {
		c := ChipsPerSymbol - 2*bits.OnesCount32(w^seq)
		if c > bestC {
			best, bestC = byte(s), c
		}
		if c < worstC {
			worstC = c
		}
	}
	return best, bestC, worstC
}

// FrameDuration returns the airtime of a frame with an n-byte payload
// (preamble 4 B + SFD 1 B + length 1 B + payload + FCS 2 B at 250 kbps).
func FrameDuration(n int) float64 {
	total := 4 + 1 + 1 + n + 2
	return float64(total) * 8 / BitRate
}
