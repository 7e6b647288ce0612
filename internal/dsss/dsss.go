// Package dsss implements an IEEE 802.11b 1 Mbps DSSS PHY at complex
// baseband — DBPSK with 11-chip Barker spreading — and the HitchHike [25]
// codeword translation on top of it. HitchHike is the system FreeRider
// generalises: it also flips the reflected signal's phase to translate
// codewords, but only works on 802.11b, whose differential modulation
// makes the translation trivial (a phase flip toggles exactly the bits at
// the flip boundaries). The paper's motivation is that almost no modern
// traffic is 802.11b, so a HitchHike tag starves; the baselines experiment
// quantifies that with this package.
package dsss

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/bits"
	"repro/internal/signal"
)

// PHY constants for 1 Mbps 802.11b.
const (
	ChipRate       = 11e6
	SamplesPerChip = 2
	SampleRate     = ChipRate * SamplesPerChip
	ChipsPerBit    = 11
	BitRate        = 1e6
	BitSamples     = ChipsPerBit * SamplesPerChip
	// PreambleBits of scrambled ones precede the 16-bit SFD (shortened
	// from the standard's 128 for simulation economy; the structure and
	// the differential decoding are what matter here).
	PreambleBits = 32
	SFD          = 0xF3A0
	MaxPayload   = 2047
)

// Barker is the 11-chip Barker sequence used by 802.11b.
var Barker = [ChipsPerBit]float64{1, -1, 1, 1, -1, 1, 1, 1, -1, -1, -1}

// FrameBits builds the over-the-air bit stream: preamble ones, SFD, 16-bit
// length (bytes, LSB first), payload, CRC-16.
func FrameBits(payload []byte) ([]byte, error) {
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("dsss: payload %d exceeds %d", len(payload), MaxPayload)
	}
	out := make([]byte, 0, PreambleBits+16+16+len(payload)*8+16)
	for i := 0; i < PreambleBits; i++ {
		out = append(out, 1)
	}
	sfd := uint32(SFD)
	for i := 0; i < 16; i++ {
		out = append(out, byte(sfd>>uint(i))&1)
	}
	for i := 0; i < 16; i++ {
		out = append(out, byte(len(payload)>>uint(i))&1)
	}
	out = append(out, bits.FromBytes(payload)...)
	crc := bits.CRC16CCITT(payload)
	for i := 0; i < 16; i++ {
		out = append(out, byte(crc>>uint(i))&1)
	}
	return out, nil
}

// AirBits returns the scrambled over-the-air bit stream of a frame: the
// logical FrameBits passed through the 802.11b self-synchronising
// scrambler. This is the reference stream a HitchHike-style decoder
// compares raw receptions against.
func AirBits(payload []byte) ([]byte, error) {
	fb, err := FrameBits(payload)
	if err != nil {
		return nil, err
	}
	return Scramble(fb, ScramblerSeed), nil
}

// Transmit builds the DBPSK/Barker waveform of one frame (scrambled per
// §16.2.4). Unit power.
func Transmit(payload []byte) (*signal.Signal, error) {
	ab, err := AirBits(payload)
	if err != nil {
		return nil, err
	}
	return ModulateBits(ab), nil
}

// ModulateBits produces the DBPSK waveform: each data bit toggles (bit 1)
// or keeps (bit 0) the phase of the Barker-spread symbol. Note 802.11b
// encodes 1 as a 180° transition.
func ModulateBits(b []byte) *signal.Signal {
	s := signal.New(SampleRate, (len(b)+1)*BitSamples)
	phase := 1.0
	pos := 0
	writeSymbol := func() {
		for c := 0; c < ChipsPerBit; c++ {
			v := complex(phase*Barker[c], 0)
			for k := 0; k < SamplesPerChip; k++ {
				s.Samples[pos] = v
				pos++
			}
		}
	}
	writeSymbol() // phase reference symbol
	for _, bit := range b {
		if bit&1 == 1 {
			phase = -phase
		}
		writeSymbol()
	}
	return s
}

// DetectionThreshold is the minimum normalised preamble correlation at
// which a frame Detect finds is accepted. Detect finds DSSS frames by
// Barker correlation and RawBitsAt reads their raw air bits by
// differential detection: what a HitchHike decoder compares against the
// excitation's air bits.
const DetectionThreshold = 0.5

// despread correlates one Barker symbol starting at sample idx, returning
// the complex symbol value.
func despread(samples []complex128, idx int) (complex128, bool) {
	if idx+BitSamples > len(samples) {
		return 0, false
	}
	var acc complex128
	for c := 0; c < ChipsPerBit; c++ {
		acc += samples[idx+c*SamplesPerChip] * complex(Barker[c], 0)
	}
	return acc, true
}

// Detect finds the chip-aligned start of the first frame: it searches for
// the alternating-phase preamble (all-ones data = phase toggles every
// symbol) by maximising Barker correlation energy over a symbol of offsets.
func Detect(cap *signal.Signal) (int, float64) {
	n := len(cap.Samples)
	best, bestQ := -1, 0.0
	for start := 0; start+8*BitSamples <= n; start++ {
		var energy, power float64
		for s := 0; s < 8; s++ {
			acc, ok := despread(cap.Samples, start+s*BitSamples)
			if !ok {
				return best, bestQ
			}
			energy += cmplx.Abs(acc)
		}
		win := cap.Samples[start : start+8*BitSamples : start+8*BitSamples]
		for _, v := range win {
			power += real(v)*real(v) + imag(v)*imag(v)
		}
		if power <= 0 {
			continue
		}
		// Normalised despreading quality: at chip alignment each symbol's
		// correlator output reaches ChipsPerBit × the RMS amplitude, so q
		// is ~1 aligned and ~1/sqrt(ChipsPerBit) otherwise.
		ampEst := math.Sqrt(power / float64(8*BitSamples))
		q := energy / (8 * ChipsPerBit * ampEst)
		if q > bestQ {
			best, bestQ = start, q
		}
		// Fixed internal gate, independent of DetectionThreshold.
		if bestQ > 0.4 && start > best+BitSamples {
			break
		}
	}
	return best, bestQ
}

// RawBitsAt differentially decodes nBits starting at the symbol boundary
// given by start (the detected frame start, i.e. the phase-reference
// symbol).
func RawBitsAt(cap *signal.Signal, start, nBits int) []byte {
	out := make([]byte, 0, nBits)
	prev, ok := despread(cap.Samples, start)
	if !ok {
		return out
	}
	for i := 1; i <= nBits; i++ {
		cur, ok := despread(cap.Samples, start+i*BitSamples)
		if !ok {
			break
		}
		// DBPSK: bit = 1 when the phase flipped.
		if real(cur*cmplx.Conj(prev)) < 0 {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
		prev = cur
	}
	return out
}
