// Package bluetooth implements a BLE-style 1 Mbps GFSK PHY at complex
// baseband: Gaussian pulse shaping with BT = 0.5, ±250 kHz frequency
// deviation (modulation index 0.5, matching the TI CC2541 the paper uses),
// data whitening, preamble/access-address framing with a CRC-24, an FM
// discriminator receiver with a channel-selection filter, and
// integrate-and-dump bit decisions.
//
// FreeRider backscatters FSK by toggling its RF switch at Δf = |f1-f0|
// (eq. 6 of the paper), swapping the two FSK codewords; the receiver's
// channel filter disposes of the mirror sideband when Δf satisfies eq. 10.
package bluetooth

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/bits"
	"repro/internal/signal"
)

// PHY constants.
const (
	BitRate          = 1e6 // bits per second
	SamplesPerBit    = 8
	SampleRate       = BitRate * SamplesPerBit
	Deviation        = 250e3 // Hz, ±Deviation for 1/0
	ChannelWidth     = 1e6   // occupied bandwidth, Hz
	ModulationIndex  = 2 * Deviation / BitRate
	PreambleByte     = 0xAA // alternating bits
	MaxPayload       = 255
	GaussianBT       = 0.5
	gaussSpanSymbols = 3
)

// AccessAddress is the default link address used by the framer
// (the BLE advertising access address).
var AccessAddress = accessAddressBytes()

func accessAddressBytes() [4]byte {
	aa := uint32(0x8E89BED6)
	return [4]byte{byte(aa), byte(aa >> 8), byte(aa >> 16), byte(aa >> 24)}
}

// CodewordDelta is the FSK codeword spacing |f1 - f0| = 2·Deviation: the
// toggle frequency a FreeRider tag uses to translate one Bluetooth codeword
// into the other (eq. 6).
const CodewordDelta = 2 * Deviation

// Errors returned by the receiver.
var (
	ErrNoFrame   = errors.New("bluetooth: no frame found")
	ErrTruncated = errors.New("bluetooth: capture truncated before frame end")
)

// Whiten applies the BLE data-whitening LFSR (x^7 + x^4 + 1) with the given
// 7-bit channel-derived seed to a bit slice in place and returns it. It is
// its own inverse.
func Whiten(b []byte, seed byte) []byte {
	state := seed & 0x7F
	if state == 0 {
		state = 0x53
	}
	for i := range b {
		out := (state >> 6) & 1
		b[i] = (b[i] ^ out) & 1
		fb := out
		state = ((state << 1) | fb) & 0x7F
		if fb == 1 {
			state ^= 0x08 // x^4 tap
		}
	}
	return b
}

// Transmitter synthesises GFSK frames at complex baseband.
type Transmitter struct {
	// WhitenSeed is the data-whitening seed (0 disables coercion to the
	// default but still whitens with 0x53).
	WhitenSeed byte
}

// NewTransmitter returns a Bluetooth transmitter with the default seed.
func NewTransmitter() *Transmitter { return &Transmitter{WhitenSeed: 0x53} }

// FrameBits builds preamble + access address + length + whitened
// (payload + CRC24) as the over-the-air bit slice. The backscatter decoder
// uses this as the excitation reference stream.
func (t *Transmitter) FrameBits(payload []byte) ([]byte, error) {
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("bluetooth: payload %d exceeds %d", len(payload), MaxPayload)
	}
	crc := bits.CRC24BLE(payload, 0x555555)
	out := make([]byte, 0, 8+32+(1+len(payload)+3)*8)
	out = appendByteBits(out, PreambleByte)
	for _, b := range AccessAddress {
		out = appendByteBits(out, b)
	}
	body := len(out)
	out = appendByteBits(out, byte(len(payload)))
	for _, b := range payload {
		out = appendByteBits(out, b)
	}
	out = appendByteBits(out, byte(crc))
	out = appendByteBits(out, byte(crc>>8))
	out = appendByteBits(out, byte(crc>>16))
	Whiten(out[body:], t.WhitenSeed)
	return out, nil
}

// appendByteBits appends the eight bits of b, LSB first (the BLE air
// order, matching bits.FromBytes).
func appendByteBits(out []byte, b byte) []byte {
	for i := 0; i < 8; i++ {
		out = append(out, (b>>uint(i))&1)
	}
	return out
}

// Transmit builds the baseband GFSK waveform of one frame. Unit power
// (constant envelope).
func (t *Transmitter) Transmit(payload []byte) (*signal.Signal, error) {
	fb, err := t.FrameBits(payload)
	if err != nil {
		return nil, err
	}
	return ModulateBits(fb), nil
}

// gaussTaps is the shared Gaussian pulse-shaping filter (BT = 0.5, one
// symbol span constant), designed once for every ModulateBits call.
var gaussTaps = signal.GaussianFIR(GaussianBT, SamplesPerBit, gaussSpanSymbols)

// ModulateBits produces the constant-envelope GFSK waveform of a bit slice.
func ModulateBits(b []byte) *signal.Signal {
	a := signal.GetArena()
	defer a.Release()
	// NRZ upsample (arena scratch — only the phase-integrated waveform
	// escapes).
	nrz := a.Complex(len(b) * SamplesPerBit)
	for i, bit := range b {
		v := -1.0
		if bit&1 == 1 {
			v = 1.0
		}
		for j := 0; j < SamplesPerBit; j++ {
			nrz[i*SamplesPerBit+j] = complex(v, 0)
		}
	}
	// Gaussian pulse shaping of the frequency waveform.
	freq := signal.ConvolveInto(a.ComplexUninit(len(nrz)), nrz, gaussTaps)

	// Phase integration: f_inst = Deviation * freq[n].
	s := signal.New(SampleRate, len(freq))
	phase := 0.0
	k := 2 * math.Pi * Deviation / SampleRate
	for i, f := range freq {
		phase += k * real(f)
		s.Samples[i] = cmplx.Exp(complex(0, phase))
	}
	return s
}

// FrameDuration returns the airtime of a frame with an n-byte payload.
func FrameDuration(n int) float64 {
	totalBits := 8 + 32 + (1+n+3)*8
	return float64(totalBits) / BitRate
}
