package wifi

import (
	"bytes"
	"testing"
)

// FuzzParseDataFrame must never panic and must only accept inputs whose
// FCS verifies.
func FuzzParseDataFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 28))
	f.Add(sampleFrame([]byte("seed")).Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := ParseDataFrame(data)
		if err != nil {
			return
		}
		// Anything accepted must re-marshal to the identical PSDU.
		if !bytes.Equal(frame.Marshal(), data) {
			t.Fatalf("accepted frame does not round trip")
		}
	})
}

// FuzzViterbiDecode must tolerate arbitrary coded streams (values beyond
// 0/1/erasure included) without panicking.
func FuzzViterbiDecode(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0})
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, coded []byte) {
		if len(coded)%2 != 0 {
			coded = coded[:len(coded)-len(coded)%2]
		}
		out, err := ViterbiDecodeInto(make([]byte, len(coded)/2), coded)
		if err != nil {
			t.Fatalf("even-length stream rejected: %v", err)
		}
		if len(out) != len(coded)/2 {
			t.Fatalf("decoded %d bits from %d coded", len(out), len(coded))
		}
	})
}
