package decoder

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzDecodeWindows drives the dual-receiver window compare with
// arbitrary stream pairs, window sizes and thresholds: truncated and
// mismatched-length inputs, degenerate windows, out-of-range thresholds.
// Beyond not panicking, every successful decode must satisfy the
// structural invariants the rest of the pipeline leans on.
func FuzzDecodeWindows(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0}, []byte{1, 0, 0, 1}, 2, 0.5)
	f.Add([]byte{}, []byte{1}, 1, 0.3)
	f.Add([]byte{3, 7, 1, 15}, []byte{9, 2}, 4, 0.3)      // window > rx
	f.Add([]byte{1, 1, 1}, []byte{1, 1, 1, 1, 1}, 0, 0.5) // degenerate window
	f.Add([]byte{0}, []byte{0}, 1, 1.5)                   // bad threshold
	f.Fuzz(func(t *testing.T, ref, rx []byte, window int, threshold float64) {
		ws, dropped, err := DecodeWindows(ref, rx, window, threshold)
		if err != nil {
			if window > 0 && threshold > 0 && threshold < 1 {
				t.Fatalf("valid parameters rejected: %v", err)
			}
			return
		}
		n := len(ref)
		if len(rx) < n {
			n = len(rx)
		}
		if len(ws) != n/window {
			t.Fatalf("windows %d, want %d", len(ws), n/window)
		}
		wantDropped := len(ref) + len(rx) - 2*n
		if dropped != wantDropped {
			t.Fatalf("dropped %d, want %d", dropped, wantDropped)
		}
		for i, w := range ws {
			if w.Bit > 1 {
				t.Fatalf("window %d: bit %d", i, w.Bit)
			}
			if w.MismatchFraction < 0 || w.MismatchFraction > 1 {
				t.Fatalf("window %d: mismatch fraction %g", i, w.MismatchFraction)
			}
			if (w.MismatchFraction > threshold) != (w.Bit == 1) {
				t.Fatalf("window %d: mismatch fraction %g at threshold %g decided bit %d",
					i, w.MismatchFraction, threshold, w.Bit)
			}
		}
	})
}

// FuzzDecodeDifferentialWindows drives the single-receiver differential
// decode with arbitrary feature streams: the decode must never panic, and
// on success the transition/XOR structure must hold — the bit stream's
// XOR differences must match re-deriving each window's transition from
// its mismatch fraction.
func FuzzDecodeDifferentialWindows(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 0, 0}, 2, 0.5)
	f.Add([]byte{}, 4, 0.5)
	f.Add([]byte{1, 2, 3}, 0, 0.5)    // degenerate window
	f.Add([]byte{1}, 1, -0.5)         // bad threshold
	f.Add([]byte{9, 8, 7, 6}, 3, 0.9) // non-binary features, truncated tail
	f.Fuzz(func(t *testing.T, rx []byte, window int, threshold float64) {
		ws, err := DecodeDifferentialWindows(rx, window, threshold)
		if err != nil {
			if window > 0 && threshold > 0 && threshold < 1 {
				t.Fatalf("valid parameters rejected: %v", err)
			}
			return
		}
		if len(ws) != len(rx)/window {
			t.Fatalf("windows %d, want %d", len(ws), len(rx)/window)
		}
		prev := byte(0)
		for i, w := range ws {
			if w.Bit > 1 {
				t.Fatalf("window %d: bit %d", i, w.Bit)
			}
			if w.MismatchFraction < 0 || w.MismatchFraction > 1 {
				t.Fatalf("window %d: mismatch fraction %g", i, w.MismatchFraction)
			}
			trans := byte(0)
			if w.MismatchFraction > threshold {
				trans = 1
			}
			if w.Bit != prev^trans {
				t.Fatalf("window %d: bit %d breaks the cumulative XOR (prev %d, trans %d)",
					i, w.Bit, prev, trans)
			}
			prev = w.Bit
		}

		// Masking features to their used bit must not change the result:
		// the decoder may only ever read feature&1.
		ws2, err := DecodeDifferentialWindows(masked(rx, 1), window, threshold)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(Bits(ws), Bits(ws2)) {
			t.Fatal("decode depends on feature bits beyond bit 0")
		}
	})
}

// checkRotationResults holds a quaternary rule's results to the shape the
// decode tail leans on: two results per complete window, bits in {0,1},
// the mismatch fraction in [0,1] and shared by a window's two bits, and
// a window whose mismatch fraction is under one half (step 0 holds a
// strict majority of its units) keeping the rotation it starts from: 0 for
// the dual rule, the previous window's for the differential one.
func checkRotationResults(t *testing.T, ws []WindowResult, windows int, differential bool) {
	t.Helper()
	if len(ws) != 2*windows {
		t.Fatalf("%d results, want %d (two per window)", len(ws), 2*windows)
	}
	for i, w := range ws {
		if w.Bit > 1 {
			t.Fatalf("result %d: bit %d", i, w.Bit)
		}
		if w.MismatchFraction < 0 || w.MismatchFraction > 1 {
			t.Fatalf("result %d: mismatch fraction %g", i, w.MismatchFraction)
		}
		if i%2 == 1 && w.MismatchFraction != ws[i-1].MismatchFraction {
			t.Fatalf("window %d: bits carry mismatch fractions %g and %g", i/2, ws[i-1].MismatchFraction, w.MismatchFraction)
		}
	}
	k0 := 0
	for i := 0; i < windows; i++ {
		k := rotation(ws, i)
		if frac := ws[2*i].MismatchFraction; frac < 0.5 && k != k0 {
			t.Fatalf("window %d: mismatch fraction %g moved the rotation %d → %d", i, frac, k0, k)
		}
		if differential {
			k0 = k
		}
	}
}

// masked returns a copy of b with every element ANDed with m.
func masked(b []byte, m byte) []byte {
	out := make([]byte, len(b))
	for i, v := range b {
		out[i] = v & m
	}
	return out
}

// FuzzDecodeQuaternaryWindows drives the dual-receiver eq. 5 rule with
// arbitrary demapped stream pairs and window sizes: mismatched lengths,
// odd and degenerate windows, elements above 1. The decode must never
// panic, a valid window must be accepted, the results must keep their
// shape, and the rule may only ever read each element's bit 0.
func FuzzDecodeQuaternaryWindows(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 0, 1, 1}, []byte{0, 1, 1, 1, 1, 0, 0, 0}, 4)
	f.Add([]byte{}, []byte{1}, 2)
	f.Add([]byte{3, 7, 1, 15, 2, 9}, []byte{9, 2, 4}, 2) // mismatched, non-binary
	f.Add([]byte{1, 1, 1}, []byte{1, 1, 1, 1, 1}, 0)     // degenerate window
	f.Add([]byte{0, 1, 0, 1}, []byte{1, 0, 1, 0}, 3)     // odd window
	f.Fuzz(func(t *testing.T, ref, rx []byte, window int) {
		ws, err := DecodeQuaternaryWindows(ref, rx, window)
		if err != nil {
			if window > 0 && window%2 == 0 {
				t.Fatalf("valid window %d rejected: %v", window, err)
			}
			return
		}
		checkRotationResults(t, ws, min(len(ref), len(rx))/window, false)
		ws2, err := DecodeQuaternaryWindows(masked(ref, 1), masked(rx, 1), window)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ws, ws2) {
			t.Fatal("decode depends on element bits beyond bit 0")
		}
	})
}

// FuzzDecodeDifferentialQuaternaryWindows drives the single-receiver
// eq. 5 rule with arbitrary rotation-feature streams and window sizes;
// the rule may only ever read each feature's low two bits.
func FuzzDecodeDifferentialQuaternaryWindows(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 3, 3, 2, 2}, 2)
	f.Add([]byte{}, 4)
	f.Add([]byte{1, 2, 3}, 0)           // degenerate window
	f.Add([]byte{9, 8, 7, 6, 255}, 2)   // features above 3, truncated tail
	f.Add([]byte{0, 1, 2, 3, 0, 1}, -1) // negative window
	f.Fuzz(func(t *testing.T, rx []byte, window int) {
		ws, err := DecodeDifferentialQuaternaryWindows(rx, window)
		if err != nil {
			if window > 0 {
				t.Fatalf("valid window %d rejected: %v", window, err)
			}
			return
		}
		checkRotationResults(t, ws, len(rx)/window, true)
		ws2, err := DecodeDifferentialQuaternaryWindows(masked(rx, 3), window)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ws, ws2) {
			t.Fatal("decode depends on feature bits beyond the low two")
		}
	})
}
