package decoder

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestRotateGrayPairCycle(t *testing.T) {
	// Four 90° rotations are the identity; rotation composition is additive.
	for b0 := byte(0); b0 < 2; b0++ {
		for b1 := byte(0); b1 < 2; b1++ {
			r0, r1 := rotateGrayPair(b0, b1, 4)
			if r0 != b0 || r1 != b1 {
				t.Fatalf("(%d,%d) rotated 360° became (%d,%d)", b0, b1, r0, r1)
			}
			// 180° equals two 90° steps equals complement of both bits.
			h0, h1 := rotateGrayPair(b0, b1, 2)
			if h0 != b0^1 || h1 != b1^1 {
				t.Fatalf("180° of (%d,%d) = (%d,%d), want complement", b0, b1, h0, h1)
			}
		}
	}
}

func TestDecodeQuaternaryWindowsAllRotations(t *testing.T) {
	// Reference stream of pairs; apply each rotation per window; decode.
	window := 16 // 8 subcarrier pairs
	ref := make([]byte, window*4)
	for i := range ref {
		ref[i] = byte((i*3 + 1) % 2)
	}
	rotations := []int{0, 1, 2, 3}
	rx := make([]byte, len(ref))
	for w, k := range rotations {
		for i := 0; i < window; i += 2 {
			idx := w*window + i
			b0, b1 := rotateGrayPair(ref[idx], ref[idx+1], k)
			rx[idx], rx[idx+1] = b0, b1
		}
	}
	ws, err := DecodeQuaternaryWindows(ref, rx, window)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 4 {
		t.Fatalf("windows %d, want 4", len(ws))
	}
	for w, k := range rotations {
		if got := rotation(ws[w]); got != k {
			t.Fatalf("window %d: rotation %d, want %d", w, got, k)
		}
		requireFullConfidence(t, w, ws[w])
	}
	bits := QuaternaryBits(ws)
	want := []byte{0, 0, 0, 1, 1, 0, 1, 1}
	if !bytes.Equal(bits, want) {
		t.Fatalf("bits %v, want %v", bits, want)
	}
}

func TestDecodeQuaternaryWindowsNoiseTolerance(t *testing.T) {
	window := 48
	ref := make([]byte, window*2)
	for i := range ref {
		ref[i] = byte(i) & 1
	}
	rx := make([]byte, len(ref))
	// Window 0: rotation 3 with 20% of pairs corrupted.
	for i := 0; i < window; i += 2 {
		b0, b1 := rotateGrayPair(ref[i], ref[i+1], 3)
		if i%10 == 0 {
			b0 ^= 1 // corruption
		}
		rx[i], rx[i+1] = b0, b1
	}
	// Window 1: rotation 0, clean.
	copy(rx[window:], ref[window:])
	ws, err := DecodeQuaternaryWindows(ref, rx, window)
	if err != nil {
		t.Fatal(err)
	}
	if rotation(ws[0]) != 3 || rotation(ws[1]) != 0 {
		t.Fatalf("rotations %d,%d want 3,0", rotation(ws[0]), rotation(ws[1]))
	}
}

// rotation is the rotation index k a window decided: its 2-bit tag
// symbol read back as a number, the inverse of QuaternaryDecode.
func rotation(w QuaternaryWindowResult) int {
	return int(w.Bits[0])<<1 | int(w.Bits[1])
}

// requireFullConfidence fails unless both of a clean window's soft values
// are at full scale: every pair matched the winning hypothesis and none
// matched one that decodes a bit the other way.
func requireFullConfidence(t *testing.T, i int, w QuaternaryWindowResult) {
	t.Helper()
	for b := 0; b < 2; b++ {
		if abs16(w.Soft[b]) != SoftScale {
			t.Fatalf("window %d bit %d: clean window soft %d, want ±%d", i, b, w.Soft[b], SoftScale)
		}
	}
}

func TestDecodeQuaternaryValidation(t *testing.T) {
	if _, err := DecodeQuaternaryWindows(nil, nil, 0); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := DecodeQuaternaryWindows(nil, nil, 3); err == nil {
		t.Error("odd window accepted")
	}
}

func TestQuaternaryRoundTripProperty(t *testing.T) {
	f := func(refRaw []byte, ks []byte) bool {
		if len(ks) == 0 {
			return true
		}
		window := 12
		nWin := len(ks)%8 + 1
		ref := make([]byte, nWin*window)
		for i := range ref {
			if len(refRaw) > 0 {
				ref[i] = refRaw[i%len(refRaw)] & 1
			}
		}
		rx := make([]byte, len(ref))
		for w := 0; w < nWin; w++ {
			k := int(ks[w%len(ks)]) % 4
			for i := 0; i < window; i += 2 {
				idx := w*window + i
				rx[idx], rx[idx+1] = rotateGrayPair(ref[idx], ref[idx+1], k)
			}
		}
		ws, err := DecodeQuaternaryWindows(ref, rx, window)
		if err != nil || len(ws) != nWin {
			return false
		}
		for w := 0; w < nWin; w++ {
			if rotation(ws[w]) != int(ks[w%len(ks)])%4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
