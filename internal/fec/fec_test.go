package fec

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestGFTables(t *testing.T) {
	for a := 1; a < 256; a++ {
		if got := gfMul(byte(a), gfDiv(1, byte(a))); got != 1 {
			t.Fatalf("a * a^-1 = %d for a=%d", got, a)
		}
	}
	// Distributivity spot-check on a pseudorandom triple set.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a, b, c := byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))
		if gfMul(a, b^c) != gfMul(a, b)^gfMul(a, c) {
			t.Fatalf("distributivity fails for %d,%d,%d", a, b, c)
		}
	}
}

func TestRSEncodeProducesValidCodeword(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, p := range []int{2, 4, 6, 16, 32} {
		for _, k := range []int{1, 5, 20, 100} {
			data := make([]byte, k)
			rng.Read(data)
			cw := make([]byte, k+p)
			copy(cw, data)
			rsEncode(data, cw[k:])
			var synd [maxParity]byte
			if syndromes(cw, synd[:p]) {
				t.Fatalf("k=%d p=%d: encoded codeword has nonzero syndrome", k, p)
			}
		}
	}
}

func TestRSDecodeCorrectsUpToT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct{ k, p int }{{10, 2}, {20, 4}, {50, 8}, {100, 16}} {
		t.Run("", func(t *testing.T) {
			data := make([]byte, tc.k)
			rng.Read(data)
			clean := make([]byte, tc.k+tc.p)
			copy(clean, data)
			rsEncode(data, clean[tc.k:])

			for errs := 0; errs <= tc.p/2; errs++ {
				rec := append([]byte(nil), clean...)
				pos := rng.Perm(len(rec))[:errs]
				for _, i := range pos {
					rec[i] ^= byte(1 + rng.Intn(255))
				}
				n, ok := rsDecode(rec, tc.p)
				if !ok {
					t.Fatalf("k=%d p=%d errs=%d: decode failed", tc.k, tc.p, errs)
				}
				if n != errs {
					t.Fatalf("k=%d p=%d errs=%d: corrected %d", tc.k, tc.p, errs, n)
				}
				for i := range clean {
					if rec[i] != clean[i] {
						t.Fatalf("k=%d p=%d errs=%d: symbol %d wrong", tc.k, tc.p, errs, i)
					}
				}
			}
		})
	}
}

func TestRSDecodeDetectsBeyondT(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const k, p = 30, 6 // t = 3
	data := make([]byte, k)
	rng.Read(data)
	clean := make([]byte, k+p)
	copy(clean, data)
	rsEncode(data, clean[k:])

	detected, miscorrected := 0, 0
	for trial := 0; trial < 500; trial++ {
		rec := append([]byte(nil), clean...)
		pos := rng.Perm(len(rec))[:p/2+1+rng.Intn(3)]
		for _, i := range pos {
			rec[i] ^= byte(1 + rng.Intn(255))
		}
		before := append([]byte(nil), rec...)
		_, ok := rsDecode(rec, p)
		if ok {
			// Beyond-t patterns may land in another codeword's ball —
			// that is a legitimate (mis)decode, not detectable. But it
			// must yield a valid codeword.
			var synd [maxParity]byte
			if syndromes(rec, synd[:p]) {
				t.Fatalf("trial %d: ok=true but syndromes nonzero", trial)
			}
			miscorrected++
			continue
		}
		detected++
		// On failure the buffer must be exactly as received.
		for i := range rec {
			if rec[i] != before[i] {
				t.Fatalf("trial %d: failed decode mutated buffer at %d", trial, i)
			}
		}
	}
	if detected == 0 {
		t.Fatal("no beyond-t pattern was detected")
	}
	if miscorrected > detected {
		t.Fatalf("miscorrection dominates: %d miscorrected vs %d detected", miscorrected, detected)
	}
}

func TestLayoutFor(t *testing.T) {
	// WiFi capacity 125 bits → 15 symbols, one codeword, even parity ≥ 2.
	lay, err := LayoutFor(125, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if lay.TotalSyms != 15 || lay.Depth != 1 {
		t.Fatalf("unexpected layout %+v", lay)
	}
	if lay.CWParity[0]%2 != 0 || lay.CWParity[0] < 2 {
		t.Fatalf("parity %d not even >= 2", lay.CWParity[0])
	}
	if lay.DataBits()+8*lay.CWParity[0] != lay.CodedBits() {
		t.Fatalf("bits don't add up: %d data + %d parity syms vs %d coded",
			lay.DataBits(), lay.CWParity[0], lay.CodedBits())
	}

	// Interleave 2 over ZigBee's 50 bits → 6 symbols in 2 codewords of 3.
	// Each would need parity 2 leaving 1 data symbol — valid.
	lay2, err := LayoutFor(50, Config{N: 255, K: 223, Interleave: 2})
	if err != nil {
		t.Fatal(err)
	}
	if lay2.Depth != 2 || lay2.DataBits() != 2*8 {
		t.Fatalf("unexpected interleaved layout %+v", lay2)
	}

	// Too small: capacity under one symbol plus parity.
	if _, err := LayoutFor(7, Config{}); err == nil {
		t.Fatal("expected error for sub-symbol capacity")
	}
	if _, err := LayoutFor(24, Config{N: 255, K: 223, Interleave: 3}); err == nil {
		t.Fatal("expected error: 1 symbol per codeword cannot hold parity")
	}
}

func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want bool
	}{
		{Config{}, true}, // defaults
		{Config{N: 255, K: 223}, true},
		{Config{N: 15, K: 11, Interleave: 4}, true},
		{Config{N: 2, K: 1}, false},
		{Config{N: 256, K: 200}, false},
		{Config{N: 255, K: 255}, false},
		{Config{N: 255, K: 0}, false},
		{Config{N: 255, K: 100}, false}, // parity 155 > maxParity
		{Config{N: 255, K: 223, Interleave: -1}, false},
		{Config{N: 255, K: 223, Interleave: 33}, false},
	} {
		err := tc.cfg.Validate()
		if (err == nil) != tc.want {
			t.Errorf("Validate(%+v) = %v, want ok=%v", tc.cfg, err, tc.want)
		}
	}
}

func TestEncodeDecodeBitsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, cap := range []int{125, 50, 129, 124} { // the four radio capacities
		for _, il := range []int{1, 2} {
			cfg := Config{N: 255, K: 223, Interleave: il}
			lay, err := LayoutFor(cap, cfg)
			if err != nil {
				t.Fatalf("cap=%d il=%d: %v", cap, il, err)
			}
			data := make([]byte, lay.DataBits())
			for i := range data {
				data[i] = byte(rng.Intn(2))
			}
			coded, err := lay.EncodeBits(data)
			if err != nil {
				t.Fatal(err)
			}
			if len(coded) != lay.CodedBits() {
				t.Fatalf("coded length %d != %d", len(coded), lay.CodedBits())
			}

			// Clean round-trip.
			got, corrected, ok := lay.DecodeBits(coded)
			if !ok || corrected != 0 {
				t.Fatalf("cap=%d il=%d: clean decode ok=%v corrected=%d", cap, il, ok, corrected)
			}
			for i := range data {
				if got[i] != data[i] {
					t.Fatalf("cap=%d il=%d: bit %d differs", cap, il, i)
				}
			}

			// Corrupt one full symbol per codeword (t >= 1 everywhere).
			bad := append([]byte(nil), coded...)
			for c := 0; c < lay.Depth; c++ {
				for j := 0; j < 8; j++ {
					bad[c*8+j] ^= 1 // symbol positions c are codeword c's first symbols
				}
			}
			got, corrected, ok = lay.DecodeBits(bad)
			if !ok || corrected != lay.Depth {
				t.Fatalf("cap=%d il=%d: corrupted decode ok=%v corrected=%d want %d",
					cap, il, ok, corrected, lay.Depth)
			}
			for i := range data {
				if got[i] != data[i] {
					t.Fatalf("cap=%d il=%d: corrected bit %d differs", cap, il, i)
				}
			}
		}
	}
}

func TestInterleaveSpreadsBursts(t *testing.T) {
	// With depth 2, a burst of 2 adjacent symbols lands on different
	// codewords, so each sees one error — correctable at t=1. The same
	// burst on depth 1 with t=1 is two errors in one codeword — it must
	// NOT decode successfully to the wrong thing silently.
	cfg2 := Config{N: 255, K: 223, Interleave: 2}
	lay2, err := LayoutFor(129, cfg2) // Bluetooth: 16 symbols
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	data := make([]byte, lay2.DataBits())
	for i := range data {
		data[i] = byte(rng.Intn(2))
	}
	coded, err := lay2.EncodeBits(data)
	if err != nil {
		t.Fatal(err)
	}
	// Burst: two adjacent symbols (positions 4, 5 → codewords 0 and 1).
	for j := 32; j < 48; j++ {
		coded[j] ^= 1
	}
	got, corrected, ok := lay2.DecodeBits(coded)
	if !ok || corrected != 2 {
		t.Fatalf("interleaved burst: ok=%v corrected=%d", ok, corrected)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("interleaved burst: bit %d differs", i)
		}
	}
}

// TestEncodeBitsPadsShortData pins the final-partial-chunk rule: data
// shorter than the layout's payload encodes as if zero-padded to it, and
// data longer than it is rejected.
func TestEncodeBitsPadsShortData(t *testing.T) {
	lay, err := LayoutFor(120, Config{N: 15, K: 9, Interleave: 2})
	if err != nil {
		t.Fatal(err)
	}
	short := []byte{1, 0, 1, 1, 0, 1, 1, 1, 0, 1, 1}
	padded := make([]byte, lay.DataBits())
	copy(padded, short)
	got, err := lay.EncodeBits(short)
	if err != nil {
		t.Fatal(err)
	}
	want, err := lay.EncodeBits(padded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("short data encodes differently from its zero-padded form")
	}
	if _, err := lay.EncodeBits(make([]byte, lay.DataBits()+1)); err == nil {
		t.Fatal("oversize data accepted")
	}
}
