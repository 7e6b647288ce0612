package wifi

import "testing"

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
