// Package wifi implements an IEEE 802.11a/g OFDM PHY at complex baseband:
// the full transmit chain (scrambler, convolutional encoder with puncturing,
// block interleaver, BPSK/QPSK/16-QAM/64-QAM mapping, pilot insertion,
// 64-point IFFT with cyclic prefix, L-STF/L-LTF preamble and SIGNAL field)
// and the matching receive chain (preamble detection, CFO correction, LTF
// channel estimation, equalisation, hard demapping, Viterbi decoding,
// descrambling and FCS check).
//
// Each bit stage has one implementation that both directions share: the
// transmitter's mappers read the punctured stream through the
// interleaver's inverse table (mapper.src); the receiver writes each
// demapped bit's trellis gain straight into its rate-1/2 slot through a
// table composed from that same table and the puncture pattern, so no
// stream is ever deinterleaved or depunctured as a pass of its own; and
// the scrambler and the descrambler's seed recovery both run from one
// table of the LFSR's 127-step cycle.
//
// FreeRider's codeword translation lives and dies inside this chain (§3.2.1
// of the paper), which is why it is reproduced bit-exactly rather than
// abstracted into a BER formula.
package wifi

import "fmt"

// Modulation identifies the subcarrier constellation of a rate.
type Modulation int

// Constellations used by 802.11a/g.
const (
	BPSK Modulation = iota
	QPSK
	QAM16
	QAM64
)

// String returns the conventional name of the modulation.
func (m Modulation) String() string {
	switch m {
	case BPSK:
		return "BPSK"
	case QPSK:
		return "QPSK"
	case QAM16:
		return "16-QAM"
	case QAM64:
		return "64-QAM"
	}
	return fmt.Sprintf("Modulation(%d)", int(m))
}

// CodingRate is the convolutional code rate after puncturing.
type CodingRate int

// Coding rates used by 802.11a/g.
const (
	Rate1_2 CodingRate = iota
	Rate2_3
	Rate3_4
)

// String returns the conventional fraction for the coding rate.
func (r CodingRate) String() string {
	switch r {
	case Rate1_2:
		return "1/2"
	case Rate2_3:
		return "2/3"
	case Rate3_4:
		return "3/4"
	}
	return fmt.Sprintf("CodingRate(%d)", int(r))
}

// Rate describes one 802.11a/g OFDM rate.
type Rate struct {
	Mbps       int        // nominal data rate
	Modulation Modulation // subcarrier constellation
	Coding     CodingRate // convolutional code rate
	NBPSC      int        // coded bits per subcarrier
	NCBPS      int        // coded bits per OFDM symbol
	NDBPS      int        // data bits per OFDM symbol
	SignalBits byte       // RATE field of the SIGNAL symbol (4 bits, b3..b0)
}

// Rates is the 802.11a/g rate table, indexed by nominal Mbps.
var Rates = map[int]Rate{
	6:  {6, BPSK, Rate1_2, 1, 48, 24, 0b1101},
	9:  {9, BPSK, Rate3_4, 1, 48, 36, 0b1111},
	12: {12, QPSK, Rate1_2, 2, 96, 48, 0b0101},
	18: {18, QPSK, Rate3_4, 2, 96, 72, 0b0111},
	24: {24, QAM16, Rate1_2, 4, 192, 96, 0b1001},
	36: {36, QAM16, Rate3_4, 4, 192, 144, 0b1011},
	48: {48, QAM64, Rate2_3, 6, 288, 192, 0b0001},
	54: {54, QAM64, Rate3_4, 6, 288, 216, 0b0011},
}

// RateBySignalBits maps a decoded 4-bit RATE field back to the rate.
func RateBySignalBits(b byte) (Rate, bool) {
	for _, r := range Rates {
		if r.SignalBits == b&0xF {
			return r, true
		}
	}
	return Rate{}, false
}

// PHY-level constants for 20 MHz 802.11a/g.
const (
	SampleRate    = 20e6 // baseband sample rate, Hz
	FFTSize       = 64   // subcarriers in the IFFT
	CPLen         = 16   // cyclic prefix samples
	SymbolLen     = FFTSize + CPLen
	SymbolTime    = 4e-6 // seconds per OFDM symbol
	NumData       = 48   // data subcarriers per symbol
	NumPilots     = 4    // pilot subcarriers per symbol
	PreambleLen   = 320  // STF (160) + LTF (160) samples
	ServiceBits   = 16   // SERVICE field length
	TailBits      = 6    // encoder flush bits
	ChannelWidth  = 20e6 // occupied channel bandwidth, Hz
	SignalSymbols = 1    // SIGNAL field length in OFDM symbols
)

// DataSubcarriers lists the 48 data subcarrier indices in fill order
// (-26..26 skipping DC and the pilots at ±7 and ±21).
var DataSubcarriers = buildDataSubcarriers()

// PilotSubcarriers lists the pilot indices with their base polarities.
var PilotSubcarriers = [NumPilots]struct {
	Index    int
	Polarity float64
}{{-21, 1}, {-7, 1}, {7, 1}, {21, -1}}

func buildDataSubcarriers() [NumData]int {
	var out [NumData]int
	n := 0
	for k := -26; k <= 26; k++ {
		switch k {
		case 0, -7, 7, -21, 21:
			continue
		}
		out[n] = k
		n++
	}
	return out
}
