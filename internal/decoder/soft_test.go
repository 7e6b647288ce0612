package decoder

import (
	"math/rand"
	"testing"
)

// The window rules' soft output is MismatchFraction, the decision quality
// /v1/decode exports per bit as "mismatch". These tests hold it coherent
// with the hard bits it accompanies.

// TestSoftHardCoherenceBinary: for every achievable mismatch count, at
// both the WiFi/BT threshold and the ZigBee threshold, a window's
// MismatchFraction is its mismatch count over the window and
// MismatchFraction > threshold exactly when the bit is 1.
func TestSoftHardCoherenceBinary(t *testing.T) {
	for _, th := range []float64{0.5, 0.3} {
		for window := 1; window <= 8; window++ {
			for mism := 0; mism <= window; mism++ {
				ref := make([]byte, window)
				rx := make([]byte, window)
				for i := 0; i < mism; i++ {
					rx[i] = 1
				}
				ws, _, err := DecodeWindows(ref, rx, window, th)
				if err != nil {
					t.Fatal(err)
				}
				w := ws[0]
				if want := float64(mism) / float64(window); w.MismatchFraction != want {
					t.Fatalf("th=%g window=%d mism=%d: mismatch fraction %g, want %g",
						th, window, mism, w.MismatchFraction, want)
				}
				if (w.MismatchFraction > th) != (w.Bit == 1) {
					t.Fatalf("th=%g window=%d mism=%d: mismatch fraction %g decided bit %d",
						th, window, mism, w.MismatchFraction, w.Bit)
				}
			}
		}
	}
}

// TestSoftMarginMonotone: more mismatches give a strictly larger
// MismatchFraction, and the decision flips from 0 to 1 once and stays.
func TestSoftMarginMonotone(t *testing.T) {
	const window = 10
	prev, prevBit := -1.0, byte(0)
	for mism := 0; mism <= window; mism++ {
		ref := make([]byte, window)
		rx := make([]byte, window)
		for i := 0; i < mism; i++ {
			rx[i] = 1
		}
		ws, _, err := DecodeWindows(ref, rx, window, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		w := ws[0]
		if w.MismatchFraction <= prev {
			t.Fatalf("mism=%d: mismatch fraction %g not increasing (prev %g)", mism, w.MismatchFraction, prev)
		}
		if w.Bit < prevBit {
			t.Fatalf("mism=%d: decision fell back to 0", mism)
		}
		prev, prevBit = w.MismatchFraction, w.Bit
	}
}

// TestSoftHardCoherenceQuaternary: for random demapped streams, each
// window yields two results sharing one MismatchFraction, the fraction of
// the window's subcarrier pairs that differ from the reference; a window
// where step 0 holds a strict majority of pairs decodes 00.
func TestSoftHardCoherenceQuaternary(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const windowBits = 16
	for trial := 0; trial < 200; trial++ {
		n := windowBits * (1 + rng.Intn(4))
		ref := make([]byte, n)
		rx := make([]byte, n)
		for i := range ref {
			ref[i] = byte(rng.Intn(2))
			rx[i] = byte(rng.Intn(2))
		}
		ws, err := DecodeQuaternaryWindows(ref, rx, windowBits)
		if err != nil {
			t.Fatal(err)
		}
		if len(ws) != 2*n/windowBits {
			t.Fatalf("trial %d: %d results, want two per window", trial, len(ws))
		}
		for i := 0; i < len(ws); i += 2 {
			lo := i / 2 * windowBits
			diff := 0
			for j := lo; j < lo+windowBits; j += 2 {
				if ref[j] != rx[j] || ref[j+1] != rx[j+1] {
					diff++
				}
			}
			want := float64(diff) / float64(windowBits/2)
			if ws[i].MismatchFraction != want || ws[i+1].MismatchFraction != want {
				t.Fatalf("trial %d window %d: mismatch fractions %g, %g, want %g",
					trial, i/2, ws[i].MismatchFraction, ws[i+1].MismatchFraction, want)
			}
			if want < 0.5 && (ws[i].Bit != 0 || ws[i+1].Bit != 0) {
				t.Fatalf("trial %d window %d: mismatch fraction %g decoded (%d,%d), want (0,0)",
					trial, i/2, want, ws[i].Bit, ws[i+1].Bit)
			}
		}
	}
}

// TestQuaternaryCleanWindowMismatch: a clean rotation-k window decodes
// k's bit pair, with MismatchFraction 0 for k = 0 and 1 otherwise.
func TestQuaternaryCleanWindowMismatch(t *testing.T) {
	const windowBits = 8
	ref := []byte{0, 0, 0, 1, 1, 0, 1, 1}
	for k := 0; k < 4; k++ {
		rx := make([]byte, len(ref))
		for i := 0; i+1 < len(ref); i += 2 {
			b0, b1 := rotateGrayPair(ref[i], ref[i+1], k)
			rx[i], rx[i+1] = b0, b1
		}
		ws, err := DecodeQuaternaryWindows(ref, rx, windowBits)
		if err != nil {
			t.Fatal(err)
		}
		want := [2]byte{byte(k >> 1), byte(k & 1)}
		for b, w := range ws {
			if w.Bit != want[b] {
				t.Fatalf("k=%d bit %d: got %d", k, b, w.Bit)
			}
		}
		requireCleanMismatch(t, ws, 0, k != 0)
	}
}
