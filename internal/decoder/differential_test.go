package decoder

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// featuresFor renders a tag bit stream as the absolute flip-feature
// stream a PHY front-end would extract: every window of `window` units
// carries its bit's flip state.
func featuresFor(tagBits []byte, window int) []byte {
	feat := make([]byte, len(tagBits)*window)
	for i := range feat {
		feat[i] = tagBits[i/window] & 1
	}
	return feat
}

func TestDifferentialRoundTrip(t *testing.T) {
	tagBits := []byte{1, 0, 1, 1, 0, 0, 1, 0}
	ws, err := DecodeDifferentialWindows(featuresFor(tagBits, 4), 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(Bits(ws), tagBits) {
		t.Fatalf("decoded %v, want %v", Bits(ws), tagBits)
	}
}

// TestDifferentialRoundTripProperty: any tag bit pattern rendered as
// clean absolute flip features decodes back exactly, for every window
// size — the cumulative XOR of window-to-window transitions reconstructs
// the absolute state the tag keyed.
func TestDifferentialRoundTripProperty(t *testing.T) {
	f := func(raw []byte, windowRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		window := int(windowRaw)%8 + 1
		tagBits := make([]byte, len(raw)%32+1)
		for i := range tagBits {
			tagBits[i] = raw[i%len(raw)] & 1
		}
		ws, err := DecodeDifferentialWindows(featuresFor(tagBits, window), window, 0.5)
		if err != nil {
			return false
		}
		return bytes.Equal(Bits(ws), tagBits)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDifferentialUnmodulatedAllZero: decoding a stream the tag never
// touched must yield all-zero tag bits at every valid threshold — the
// self-consistency property the core property test exercises end to end.
func TestDifferentialUnmodulatedAllZero(t *testing.T) {
	for _, th := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		for _, base := range []byte{0, 1} {
			feat := make([]byte, 64)
			for i := range feat {
				feat[i] = base
			}
			ws, err := DecodeDifferentialWindows(feat, 4, th)
			if err != nil {
				t.Fatal(err)
			}
			// A constant-1 feature stream flags one transition at window 0
			// (the implicit all-zero anchor) and none after; a constant-0
			// stream flags none at all. Only the latter models an
			// unmodulated capture — the anchor exists precisely because
			// untranslated headers measure as feature 0.
			want := make([]byte, len(ws))
			if base == 1 {
				for i := range want {
					want[i] = 1
				}
			}
			if !bytes.Equal(Bits(ws), want) {
				t.Fatalf("th=%g base=%d: decoded %v, want %v", th, base, Bits(ws), want)
			}
		}
	}
}

// TestDifferentialErrorPropagation pins the documented failure mode: one
// misdecided transition inverts every later bit until a second error
// cancels it.
func TestDifferentialErrorPropagation(t *testing.T) {
	tagBits := []byte{0, 1, 1, 0, 0, 1}
	feat := featuresFor(tagBits, 4)
	// Corrupt window 2 wholesale: its compare against window 1 and window
	// 3's compare against it both flip, i.e. exactly one spurious
	// transition pair straddling the corrupt window.
	for i := 8; i < 12; i++ {
		feat[i] ^= 1
	}
	ws, err := DecodeDifferentialWindows(feat, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte{}, tagBits...)
	want[2] ^= 1 // only the corrupt window itself decodes wrong
	if !bytes.Equal(Bits(ws), want) {
		t.Fatalf("decoded %v, want %v", Bits(ws), want)
	}

	// A single wrong *transition* (corrupting the boundary once) inverts
	// the whole tail.
	feat = featuresFor(tagBits, 4)
	for i := 8; i < len(feat); i++ {
		feat[i] ^= 1 // flip window 2 onward: one spurious transition
	}
	ws, err = DecodeDifferentialWindows(feat, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want = append([]byte{}, tagBits...)
	for i := 2; i < len(want); i++ {
		want[i] ^= 1
	}
	if !bytes.Equal(Bits(ws), want) {
		t.Fatalf("decoded %v, want %v (inverted tail)", Bits(ws), want)
	}
}

// TestDifferentialSoftCoherence: re-slicing Soft must reproduce Bit for
// random feature streams — the invariant that lets fec.Combiner
// chase-combine single-receiver attempts.
func TestDifferentialSoftCoherence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		window := 1 + rng.Intn(8)
		feat := make([]byte, window*(1+rng.Intn(16))+rng.Intn(window))
		for i := range feat {
			feat[i] = byte(rng.Intn(2))
		}
		ws, err := DecodeDifferentialWindows(feat, window, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range ws {
			if got := sliceSoft(w.Soft); got != w.Bit {
				t.Fatalf("trial %d window %d: soft %d slices to %d, hard %d", trial, i, w.Soft, got, w.Bit)
			}
			if w.Soft < -SoftScale || w.Soft > SoftScale {
				t.Fatalf("soft %d outside ±SoftScale", w.Soft)
			}
		}
	}
}

func TestDifferentialQuaternaryRoundTrip(t *testing.T) {
	// Rotation indices per window; bits are each k's binary expansion.
	ks := []int{0, 1, 3, 2, 2, 1, 0, 3}
	const window = 4
	feat := make([]byte, len(ks)*window)
	for i := range feat {
		feat[i] = byte(ks[i/window])
	}
	ws, err := DecodeDifferentialQuaternaryWindows(feat, window)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != len(ks) {
		t.Fatalf("windows %d, want %d", len(ws), len(ks))
	}
	for i, w := range ws {
		want := [2]byte{byte(ks[i] >> 1), byte(ks[i] & 1)}
		if w.Bits != want {
			t.Fatalf("window %d: bits %v, want %v", i, w.Bits, want)
		}
		requireFullConfidence(t, i, w)
	}
}

// TestDifferentialQuaternarySoftCoherence: per-bit soft decisions re-slice
// to the decided bits for random rotation-feature streams.
func TestDifferentialQuaternarySoftCoherence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		window := 1 + rng.Intn(8)
		feat := make([]byte, window*(1+rng.Intn(16))+rng.Intn(window))
		for i := range feat {
			feat[i] = byte(rng.Intn(4))
		}
		ws, err := DecodeDifferentialQuaternaryWindows(feat, window)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range ws {
			for b := 0; b < 2; b++ {
				if got := sliceSoft(w.Soft[b]); got != w.Bits[b] {
					t.Fatalf("trial %d window %d bit %d: soft %d slices to %d, hard %d",
						trial, i, b, w.Soft[b], got, w.Bits[b])
				}
			}
		}
	}
}

func TestDifferentialValidation(t *testing.T) {
	if _, err := DecodeDifferentialWindows(nil, 0, 0.5); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := DecodeDifferentialWindows(nil, 4, 0); err == nil {
		t.Error("threshold 0 accepted")
	}
	if _, err := DecodeDifferentialWindows(nil, 4, 1); err == nil {
		t.Error("threshold 1 accepted")
	}
	if _, err := DecodeDifferentialQuaternaryWindows(nil, 0); err == nil {
		t.Error("quaternary zero window accepted")
	}
	if ws, err := DecodeDifferentialWindows([]byte{1, 0}, 4, 0.5); err != nil || len(ws) != 0 {
		t.Errorf("sub-window stream: ws=%v err=%v, want empty success", ws, err)
	}
}
