// Package plm implements the paper's packet-length-modulation downlink
// (§2.4.2): the transmitter encodes bits in the *durations* of its packets
// (L0 for 0, L1 for 1) and a tag decodes them with nothing but an envelope
// detector — duration survives low SNR where amplitude does not. A preamble
// framed in the same alphabet lets the tag find scheduling messages in its
// circular bit buffer; pulses with unrecognised durations are ambient
// traffic and are ignored.
package plm

import (
	"fmt"
	"math"
)

// Scheme fixes the PLM alphabet.
type Scheme struct {
	L0    float64 // duration of a 0 pulse, seconds
	L1    float64 // duration of a 1 pulse, seconds
	Gap   float64 // inter-pulse idle time, seconds
	Bound float64 // classification tolerance (paper: 25 µs)
	// Preamble is the bit pattern that marks a scheduling message.
	Preamble []byte
}

// DefaultScheme is calibrated for ~500 bps (§2.4.2) with pulse lengths in
// the quiet zone of the Fig 3 ambient-duration distribution.
func DefaultScheme() Scheme {
	return Scheme{
		L0:       800e-6,
		L1:       1200e-6,
		Gap:      800e-6,
		Bound:    25e-6,
		Preamble: []byte{1, 0, 1, 1, 0, 0, 1, 0},
	}
}

// Validate checks the scheme is usable.
func (s Scheme) Validate() error {
	if s.L0 <= 0 || s.L1 <= 0 || s.Gap < 0 || s.Bound <= 0 {
		return fmt.Errorf("plm: non-positive timing parameter")
	}
	if math.Abs(s.L1-s.L0) <= 2*s.Bound {
		return fmt.Errorf("plm: L0=%g and L1=%g closer than twice the bound %g", s.L0, s.L1, s.Bound)
	}
	if len(s.Preamble) == 0 {
		return fmt.Errorf("plm: empty preamble")
	}
	return nil
}

// RateBps returns the average signalling rate for balanced bits.
func (s Scheme) RateBps() float64 {
	mean := (s.L0+s.L1)/2 + s.Gap
	if mean <= 0 {
		return 0
	}
	return 1 / mean
}

// Encode converts bits into a pulse-duration schedule (no preamble added).
func (s Scheme) Encode(bits []byte) []float64 {
	out := make([]float64, len(bits))
	for i, b := range bits {
		if b&1 == 1 {
			out[i] = s.L1
		} else {
			out[i] = s.L0
		}
	}
	return out
}

// EncodeMessage prepends the preamble to the payload bits and encodes the
// whole message as pulse durations.
func (s Scheme) EncodeMessage(payload []byte) []float64 {
	return s.Encode(append(append([]byte(nil), s.Preamble...), payload...))
}

// Classify maps one measured pulse duration to a bit. ok is false when the
// duration matches neither symbol (ambient traffic, ignored per §2.4.2).
func (s Scheme) Classify(duration float64) (bit byte, ok bool) {
	if math.Abs(duration-s.L0) <= s.Bound {
		return 0, true
	}
	if math.Abs(duration-s.L1) <= s.Bound {
		return 1, true
	}
	return 0, false
}

// TagReceiver is the tag-side message scanner: a circular bit buffer whose
// head is matched against the preamble (§2.4.1, "determining when to
// backscatter").
type TagReceiver struct {
	scheme Scheme
	buf    []byte
}

// NewTagReceiver returns a receiver for the given scheme.
func NewTagReceiver(scheme Scheme) (*TagReceiver, error) {
	if err := scheme.Validate(); err != nil {
		return nil, err
	}
	return &TagReceiver{scheme: scheme}, nil
}

// Feed pushes one measured pulse duration into the receiver. Unrecognised
// durations are ignored.
func (t *TagReceiver) Feed(duration float64) {
	if b, ok := t.scheme.Classify(duration); ok {
		t.buf = append(t.buf, b)
		// Bound the buffer: nothing older than 4 messages matters.
		if max := 4 * (len(t.scheme.Preamble) + 64); len(t.buf) > max {
			t.buf = t.buf[len(t.buf)-max:]
		}
	}
}

// Message scans the buffer for the preamble and returns the n payload bits
// that follow it, consuming them. ok is false if no complete message is
// buffered yet.
func (t *TagReceiver) Message(n int) ([]byte, bool) {
	pre := t.scheme.Preamble
	for i := 0; i+len(pre)+n <= len(t.buf); i++ {
		match := true
		for j, p := range pre {
			if t.buf[i+j] != p {
				match = false
				break
			}
		}
		if match {
			msg := append([]byte(nil), t.buf[i+len(pre):i+len(pre)+n]...)
			t.buf = t.buf[i+len(pre)+n:]
			return msg, true
		}
	}
	return nil, false
}

// PulseSuccessProbability is the event-level model behind Fig 4: the
// probability that one PLM pulse is received and classified correctly by a
// tag whose envelope-detector margin (pulse RSSI at the tag minus the
// comparator reference) is marginDB. Calibrated to the paper's endpoints —
// >70% scheduling-message success within 4 m and ~50% at 50 m at 15 dBm —
// the error budget is ~3.5% ambient-collision floor plus a slow SNR term.
func PulseSuccessProbability(marginDB float64) float64 {
	if marginDB < 0 {
		return 0.9 * math.Exp(marginDB/4)
	}
	p := 0.9 + 0.002*marginDB
	if p > 0.995 {
		p = 0.995
	}
	return p
}

// MessageSuccessProbability is the probability an n-bit scheduling message
// (preamble included) decodes in full at the given margin.
func MessageSuccessProbability(marginDB float64, nBits int) float64 {
	if nBits <= 0 {
		return 1
	}
	return math.Pow(PulseSuccessProbability(marginDB), float64(nBits))
}
