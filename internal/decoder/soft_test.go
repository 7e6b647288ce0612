package decoder

import (
	"math/rand"
	"testing"
)

// sliceSoft mirrors the fec combiner's slicing rule (negative → 1, ties →
// 0) without importing internal/fec; the convention is pinned by these
// tests on both sides.
func sliceSoft(s int16) byte {
	if s < 0 {
		return 1
	}
	return 0
}

// TestSoftHardCoherenceBinary: re-slicing a window's soft value must
// reproduce its hard bit for every achievable mismatch count, at both the
// WiFi/BT threshold and the ZigBee threshold.
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
				if got := sliceSoft(w.Soft); got != w.Bit {
					t.Fatalf("th=%g window=%d mism=%d: soft %d slices to %d, hard bit %d",
						th, window, mism, w.Soft, got, w.Bit)
				}
				if w.Bit == 1 && w.Soft == 0 {
					t.Fatalf("th=%g window=%d mism=%d: decided 1 with soft 0", th, window, mism)
				}
				if w.Soft < -SoftScale || w.Soft > SoftScale {
					t.Fatalf("soft %d outside ±SoftScale", w.Soft)
				}
			}
		}
	}
}

// TestSoftMarginMonotone: more mismatches → algebraically smaller soft
// value (toward confident 1), pinning the sign convention.
func TestSoftMarginMonotone(t *testing.T) {
	const window = 10
	prev := int16(SoftScale + 1)
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
		if ws[0].Soft >= prev {
			t.Fatalf("mism=%d: soft %d not decreasing (prev %d)", mism, ws[0].Soft, prev)
		}
		prev = ws[0].Soft
	}
}

// TestSoftHardCoherenceQuaternary: for random demapped streams, each
// window's per-bit soft decisions must re-slice to the decided bits.
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
		for wi, w := range ws {
			for b := 0; b < 2; b++ {
				if got := sliceSoft(w.Soft[b]); got != w.Bits[b] {
					t.Fatalf("trial %d window %d bit %d: soft %d slices to %d, hard %d",
						trial, wi, b, w.Soft[b], got, w.Bits[b])
				}
			}
		}
		soft := QuaternarySoft(ws)
		bits := QuaternaryBits(ws)
		if len(soft) != len(bits) {
			t.Fatalf("soft/bits length mismatch: %d vs %d", len(soft), len(bits))
		}
		for i := range soft {
			if sliceSoft(soft[i]) != bits[i] {
				t.Fatalf("flattened stream diverges at %d", i)
			}
		}
	}
}

// TestQuaternarySoftOppositeHypothesis: a clean rotation-k window must
// give both bits full-confidence soft values matching k's bit pair.
func TestQuaternarySoftOppositeHypothesis(t *testing.T) {
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
		w := ws[0]
		want := [2]byte{byte(k >> 1), byte(k & 1)}
		for b := 0; b < 2; b++ {
			if w.Bits[b] != want[b] {
				t.Fatalf("k=%d bit %d: got %d", k, b, w.Bits[b])
			}
			if mag := abs16(w.Soft[b]); mag < SoftScale/2 {
				t.Fatalf("k=%d bit %d: clean window soft %d not confident", k, b, w.Soft[b])
			}
		}
	}
}

func abs16(s int16) int16 {
	if s < 0 {
		return -s
	}
	return s
}
