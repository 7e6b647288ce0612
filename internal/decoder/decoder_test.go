package decoder

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestTable1LogicTable reproduces Table 1 of the paper exactly.
func TestTable1LogicTable(t *testing.T) {
	const c1, c2 = 1, 2 // two codewords from the same codebook
	cases := []struct {
		decoded, excitation byte
		want                byte
	}{
		{c2, c1, 1},
		{c1, c2, 1},
		{c1, c1, 0},
		{c2, c2, 0},
	}
	for _, c := range cases {
		if got := XORDecode(c.excitation, c.decoded); got != c.want {
			t.Errorf("XORDecode(exc=%d, dec=%d) = %d, want %d", c.excitation, c.decoded, got, c.want)
		}
	}
}

func TestDecodeWindowsCleanComplement(t *testing.T) {
	ref := []byte{0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0}
	// Tag bits 1,0,1 over windows of 4: window flipped, same, flipped.
	rx := make([]byte, len(ref))
	copy(rx, ref)
	for i := 0; i < 4; i++ {
		rx[i] ^= 1
	}
	for i := 8; i < 12; i++ {
		rx[i] ^= 1
	}
	ws, dropped, err := DecodeWindows(ref, rx, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("dropped %d on equal-length streams", dropped)
	}
	if !bytes.Equal(Bits(ws), []byte{1, 0, 1}) {
		t.Fatalf("decoded %v, want [1 0 1]", Bits(ws))
	}
	if ws[0].MismatchFraction != 1 || ws[1].MismatchFraction != 0 {
		t.Fatalf("mismatch fractions %v", ws)
	}
}

func TestDecodeWindowsToleratesBoundaryErrors(t *testing.T) {
	// 96-bit windows with 10 boundary errors leaking into each window must
	// still decode correctly (the §3.2.1 scenario).
	window := 96
	ref := make([]byte, window*4)
	for i := range ref {
		ref[i] = byte((i * 7) % 2)
	}
	rx := make([]byte, len(ref))
	copy(rx, ref)
	tagBits := []byte{1, 0, 1, 0}
	for w, b := range tagBits {
		for i := 0; i < window; i++ {
			idx := w*window + i
			flip := b
			// Corrupt the first 10 positions of every window.
			if i < 10 {
				flip ^= 1
			}
			rx[idx] ^= flip
		}
	}
	ws, _, err := DecodeWindows(ref, rx, window, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(Bits(ws), tagBits) {
		t.Fatalf("decoded %v, want %v", Bits(ws), tagBits)
	}
}

func TestDecodeWindowsLowThresholdForSymbolStreams(t *testing.T) {
	// ZigBee-style: a tag-1 window replaces symbols with *different* ones
	// (not complements); mismatch fraction is 1.0 there but a noisy tag-0
	// window may show ~10% mismatch. A 0.3 threshold separates them.
	ref := []byte{3, 7, 1, 15, 3, 7, 1, 15}
	rx := []byte{9, 2, 4, 8, 3, 7, 2, 15} // first window all wrong, second has 1 error
	ws, _, err := DecodeWindows(ref, rx, 4, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(Bits(ws), []byte{1, 0}) {
		t.Fatalf("decoded %v, want [1 0]", Bits(ws))
	}
}

func TestDecodeWindowsLengthHandling(t *testing.T) {
	ref := make([]byte, 10)
	rx := make([]byte, 7)
	ws, dropped, err := DecodeWindows(ref, rx, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 2 { // min(10,7)=7 -> 2 complete windows
		t.Fatalf("windows %d, want 2", len(ws))
	}
	if dropped != 3 { // the reference's unmatched tail
		t.Fatalf("dropped %d, want 3", dropped)
	}
}

// TestDecodeWindowsDropped pins the dropped-element accounting: the count
// is the length mismatch between the streams (elements with no
// counterpart to compare), never the sub-window tail both streams share —
// that remainder is inherent to windowing and would make every routine
// packet report noise.
func TestDecodeWindowsDropped(t *testing.T) {
	cases := []struct {
		name                     string
		refLen, rxLen, window    int
		wantWindows, wantDropped int
	}{
		{"empty both", 0, 0, 4, 0, 0},
		{"empty rx", 8, 0, 4, 0, 8},
		{"empty ref", 0, 8, 4, 0, 8},
		{"window larger than streams", 3, 3, 4, 0, 0},
		{"window larger, mismatched", 3, 2, 4, 0, 1},
		{"exact boundary", 8, 8, 4, 2, 0},
		{"shared sub-window tail not dropped", 10, 10, 4, 2, 0},
		{"rx shorter", 12, 9, 4, 2, 3},
		{"ref shorter", 9, 12, 4, 2, 3},
		{"mismatch plus shared tail", 11, 9, 4, 2, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ws, dropped, err := DecodeWindows(make([]byte, c.refLen), make([]byte, c.rxLen), c.window, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if len(ws) != c.wantWindows {
				t.Errorf("windows %d, want %d", len(ws), c.wantWindows)
			}
			if dropped != c.wantDropped {
				t.Errorf("dropped %d, want %d", dropped, c.wantDropped)
			}
		})
	}
}

func TestDecodeWindowsValidation(t *testing.T) {
	if _, _, err := DecodeWindows(nil, nil, 0, 0.5); err == nil {
		t.Error("zero window accepted")
	}
	if _, _, err := DecodeWindows(nil, nil, 4, 1.5); err == nil {
		t.Error("threshold 1.5 accepted")
	}
	if _, _, err := DecodeWindows(nil, nil, 4, 0); err == nil {
		t.Error("threshold 0 accepted")
	}
}

func TestDecodeWindowsRoundTripProperty(t *testing.T) {
	// For any tag bit pattern and any reference stream, complementing the
	// windows of a clean channel decodes back to the pattern.
	f := func(refRaw []byte, tagRaw []byte) bool {
		window := 8
		if len(tagRaw) == 0 {
			return true
		}
		tagBits := make([]byte, len(tagRaw)%16+1)
		for i := range tagBits {
			tagBits[i] = tagRaw[i%len(tagRaw)] & 1
		}
		ref := make([]byte, len(tagBits)*window)
		for i := range ref {
			if len(refRaw) > 0 {
				ref[i] = refRaw[i%len(refRaw)] & 1
			}
		}
		rx := make([]byte, len(ref))
		for i := range ref {
			rx[i] = ref[i] ^ tagBits[i/window]
		}
		ws, _, err := DecodeWindows(ref, rx, window, 0.5)
		if err != nil {
			return false
		}
		return bytes.Equal(Bits(ws), tagBits)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuaternaryDecode pins appendRotation's rotation → bit-pair mapping
// (eq. 5: the tag applies k·Δθ per window and k's binary expansion is the
// tag bit pair) from every starting rotation k0, and its returned k.
func TestQuaternaryDecode(t *testing.T) {
	want := [][2]byte{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	for k0 := 0; k0 < 4; k0++ {
		for d := 0; d < 4; d++ {
			var matches [4]int
			matches[d] = 6
			ws, k := appendRotation(nil, &matches, k0, 6)
			wantK := (k0 + d) & 3
			if k != wantK || len(ws) != 2 {
				t.Fatalf("k0=%d d=%d: k=%d with %d results, want k=%d with 2", k0, d, k, len(ws), wantK)
			}
			if got := [2]byte{ws[0].Bit, ws[1].Bit}; got != want[wantK] {
				t.Errorf("k0=%d d=%d: bits %v, want %v", k0, d, got, want[wantK])
			}
		}
	}
}

// TestDecodeQuaternaryWindowsAllocs pins both quaternary rules to one
// allocation, their result slice: nothing per window or per bit.
func TestDecodeQuaternaryWindowsAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ref := make([]byte, 480)
	rx := make([]byte, len(ref))
	for i := range ref {
		ref[i] = byte(rng.Intn(2))
		rx[i] = byte(rng.Intn(4))
	}
	for _, rule := range []struct {
		name   string
		decode func() ([]WindowResult, error)
	}{
		{"DecodeQuaternaryWindows", func() ([]WindowResult, error) { return DecodeQuaternaryWindows(ref, rx, 24) }},
		{"DecodeDifferentialQuaternaryWindows", func() ([]WindowResult, error) { return DecodeDifferentialQuaternaryWindows(rx, 4) }},
	} {
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := rule.decode(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Fatalf("%s: %v allocations per call, want 1", rule.name, allocs)
		}
	}
}

func TestBER(t *testing.T) {
	e, n, dropped := BER([]byte{1, 0, 1, 1}, []byte{1, 1, 1, 0})
	if e != 2 || n != 4 || dropped != 0 {
		t.Fatalf("BER = %d/%d dropped %d, want 2/4 dropped 0", e, n, dropped)
	}
	e, n, dropped = BER([]byte{1, 0}, []byte{1})
	if e != 0 || n != 1 || dropped != 1 {
		t.Fatalf("short BER = %d/%d dropped %d, want 0/1 dropped 1", e, n, dropped)
	}
	e, n, dropped = BER(nil, []byte{1, 1, 1})
	if e != 0 || n != 0 || dropped != 3 {
		t.Fatalf("empty-sent BER = %d/%d dropped %d, want 0/0 dropped 3", e, n, dropped)
	}
}
