package dsss

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/signal"
)

func TestBarkerAutocorrelation(t *testing.T) {
	// The Barker-11 sequence has peak autocorrelation 11 and off-peak
	// magnitudes <= 1 (cyclic) — the property that makes despreading work.
	for shift := 1; shift < ChipsPerBit; shift++ {
		acc := 0.0
		for i := 0; i < ChipsPerBit; i++ {
			acc += Barker[i] * Barker[(i+shift)%ChipsPerBit]
		}
		if math.Abs(acc) > 1.01 {
			t.Fatalf("cyclic autocorrelation at shift %d = %g", shift, acc)
		}
	}
}

func TestFrameBitsLayout(t *testing.T) {
	fb, err := FrameBits([]byte{0xAB})
	if err != nil {
		t.Fatal(err)
	}
	want := PreambleBits + 16 + 16 + 8 + 16
	if len(fb) != want {
		t.Fatalf("frame bits %d, want %d", len(fb), want)
	}
	for i := 0; i < PreambleBits; i++ {
		if fb[i] != 1 {
			t.Fatal("preamble must be all ones")
		}
	}
	if _, err := FrameBits(make([]byte, MaxPayload+1)); err == nil {
		t.Error("oversized payload accepted")
	}
}

func TestModulateDifferentialStructure(t *testing.T) {
	// Bit 1 flips the symbol phase, bit 0 keeps it.
	s := ModulateBits([]byte{1, 0})
	sym := func(i int) complex128 { return s.Samples[i*BitSamples] }
	// Reference symbol chip 0 is +Barker[0]; after bit 1, flipped.
	if real(sym(0))*real(sym(1)) >= 0 {
		t.Fatal("bit 1 did not flip phase")
	}
	if real(sym(1))*real(sym(2)) <= 0 {
		t.Fatal("bit 0 changed phase")
	}
}

// receiveAirBits finds the frame in cap and reads its raw air bits: the
// Detect + RawBitsAt path a HitchHike decoder runs.
func receiveAirBits(t *testing.T, cap *signal.Signal, n int) (start int, raw []byte) {
	t.Helper()
	start, q := Detect(cap)
	if start < 0 || q < DetectionThreshold {
		t.Fatalf("frame not detected (start %d, quality %.2f)", start, q)
	}
	return start, RawBitsAt(cap, start, n)
}

func TestTransmitReceiveClean(t *testing.T) {
	payloads := [][]byte{
		{0x01},
		[]byte("hitchhike rides 802.11b"),
		bytes.Repeat([]byte{0x5A}, 64),
	}
	for _, p := range payloads {
		sig, err := Transmit(p)
		if err != nil {
			t.Fatal(err)
		}
		air, err := AirBits(p)
		if err != nil {
			t.Fatal(err)
		}
		cap := signal.New(SampleRate, len(sig.Samples)+300)
		copy(cap.Samples[110:], sig.Samples)
		start, raw := receiveAirBits(t, cap, len(air))
		if start != 110 || !bytes.Equal(raw, air) {
			t.Fatalf("payload %d bytes: start %d, air bits match %v", len(p), start, bytes.Equal(raw, air))
		}
	}
}

func TestTransmitReceiveNoisyRotated(t *testing.T) {
	p := []byte("differential survives rotation")
	sig, _ := Transmit(p)
	air, _ := AirBits(p)
	cap := signal.New(SampleRate, len(sig.Samples)+400)
	copy(cap.Samples[173:], sig.Samples)
	cap.Scale(complex(0.03, 0))
	cap.PhaseShift(1.9) // DBPSK is phase-reference free
	cap.AddAWGN(6e-6, signal.NewNoise(5))
	if _, raw := receiveAirBits(t, cap, len(air)); !bytes.Equal(raw, air) {
		t.Fatal("air bits wrong under noise and rotation")
	}
}

func TestReceiverRejectsNoise(t *testing.T) {
	cap := signal.New(SampleRate, 40000)
	cap.AddAWGN(0.02, signal.NewNoise(9))
	if start, q := Detect(cap); start >= 0 && q >= DetectionThreshold {
		t.Errorf("detected a frame in pure noise (start %d, quality %.2f)", start, q)
	}
}

// TestHitchHikeCodewordTranslation is the HitchHike [25] mechanism this
// package exists to baseline: flipping the reflected phase over a run of
// DBPSK symbols toggles exactly the differential bits at the run's two
// boundaries. The XOR of excitation and backscatter streams therefore
// marks the tag's flip edges.
func TestHitchHikeCodewordTranslation(t *testing.T) {
	p := []byte{0xC4, 0x21, 0x7E}
	sig, err := Transmit(p)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := AirBits(p)
	if err != nil {
		t.Fatal(err)
	}

	// Tag flips phase over data bits [40, 60) (i.e. symbols 41..60: symbol
	// k carries data bit k-1 relative to the reference symbol).
	flipStartBit, flipEndBit := 40, 60
	mod := sig.Clone()
	lo := (flipStartBit + 1) * BitSamples
	hi := (flipEndBit + 1) * BitSamples
	for i := lo; i < hi; i++ {
		mod.Samples[i] = -mod.Samples[i]
	}

	cap := signal.New(SampleRate, len(mod.Samples)+200)
	copy(cap.Samples[100:], mod.Samples)
	start, q := Detect(cap)
	if start < 0 || q < DetectionThreshold {
		t.Fatal("backscattered 11b frame not detected")
	}
	raw := RawBitsAt(cap, start, len(fb))
	if len(raw) != len(fb) {
		t.Fatalf("raw bits %d, want %d", len(raw), len(fb))
	}
	for i := range raw {
		wantFlip := i == flipStartBit || i == flipEndBit
		flipped := raw[i] != fb[i]
		if flipped != wantFlip {
			t.Fatalf("bit %d: flipped=%v, want %v (differential edge coding)", i, flipped, wantFlip)
		}
	}
}

func TestDetectChipAlignment(t *testing.T) {
	sig, _ := Transmit([]byte{0x42, 0x99})
	cap := signal.New(SampleRate, len(sig.Samples)+500)
	copy(cap.Samples[237:], sig.Samples)
	start, _ := Detect(cap)
	if start != 237 {
		t.Fatalf("detected start %d, want 237", start)
	}
}

func TestRawBitsTruncationSafe(t *testing.T) {
	sig, _ := Transmit([]byte{1})
	cap := signal.New(SampleRate, len(sig.Samples))
	copy(cap.Samples, sig.Samples)
	raw := RawBitsAt(cap, 0, 100000)
	if len(raw) >= 100000 {
		t.Fatal("raw bits exceeded capture")
	}
}

func TestScrambleDescrambleRoundTrip(t *testing.T) {
	in := make([]byte, 200)
	for i := range in {
		in[i] = byte((i * 5) % 2)
	}
	sc := Scramble(in, ScramblerSeed)
	de := descramble(sc)
	// The descrambler self-synchronises after 7 bits.
	for i := 7; i < len(in); i++ {
		if de[i] != in[i] {
			t.Fatalf("bit %d: descrambled %d, want %d", i, de[i], in[i])
		}
	}
}

func TestScramblerWhitens(t *testing.T) {
	zeros := make([]byte, 256)
	sc := Scramble(zeros, ScramblerSeed)
	ones := 0
	for _, b := range sc {
		ones += int(b)
	}
	if ones < 80 || ones > 176 {
		t.Fatalf("scrambled all-zeros has %d/256 ones; not whitened", ones)
	}
}

func TestDescramblerSelfSyncsFromAnySeed(t *testing.T) {
	in := make([]byte, 100)
	for i := range in {
		in[i] = byte(i) & 1
	}
	for _, seed := range []byte{0x00, 0x1B, 0x7F, 0x2A} {
		de := descramble(Scramble(in, seed))
		for i := 7; i < len(in); i++ {
			if de[i] != in[i] {
				t.Fatalf("seed %#x: bit %d wrong", seed, i)
			}
		}
	}
}

// descramble inverts Scramble without knowing the seed, as a receiver
// does: in[k] = rx[k] ⊕ rx[k-4] ⊕ rx[k-7]. The first 7 outputs are
// register warm-up.
func descramble(rx []byte) []byte {
	reg := byte(0)
	out := make([]byte, len(rx))
	for k, b := range rx {
		out[k] = (b ^ (reg >> 3) ^ (reg >> 6)) & 1
		reg = (reg << 1) | b&1
	}
	return out
}
