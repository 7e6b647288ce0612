package zigbee

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/signal"
)

// correlateChips, bestSymbolBytes and bestWorstSymbolBytes are the
// byte-per-chip chip decision the receiver made before it packed chips
// into words, kept as the reference bestSymbol must reproduce.

// correlateChips returns the correlation (agreements minus
// disagreements, range [-32, 32]) between a 32-chip window and sequence
// s.
func correlateChips(chips []byte, s int) int {
	acc := 0
	for i := 0; i < ChipsPerSymbol; i++ {
		if chips[i]&1 == ChipSequences[s][i] {
			acc++
		} else {
			acc--
		}
	}
	return acc
}

// bestSymbolBytes returns the data symbol whose sequence best matches
// the 32-chip window (the first on a tie), with the winning correlation.
func bestSymbolBytes(chips []byte) (byte, int) {
	best, bestC := byte(0), -ChipsPerSymbol-1
	for s := 0; s < 16; s++ {
		if c := correlateChips(chips, s); c > bestC {
			best, bestC = byte(s), c
		}
	}
	return best, bestC
}

// bestWorstSymbolBytes is bestSymbolBytes extended with the codebook's
// worst (most negative) correlation over the same window.
func bestWorstSymbolBytes(chips []byte) (best byte, bestC, worstC int) {
	best, bestC = byte(0), -ChipsPerSymbol-1
	worstC = ChipsPerSymbol + 1
	for s := 0; s < 16; s++ {
		c := correlateChips(chips, s)
		if c > bestC {
			best, bestC = byte(s), c
		}
		if c < worstC {
			worstC = c
		}
	}
	return best, bestC, worstC
}

// packChips packs a 32-chip window into bestSymbol's word, chip k in
// bit k.
func packChips(chips []byte) uint32 {
	var w uint32
	for k, c := range chips[:ChipsPerSymbol] {
		w |= uint32(c&1) << k
	}
	return w
}

// TestBestSymbolMatchesByteReference checks the packed-word decision
// against the byte reference, (best, bestC, worstC) all equal, on every
// sequence and its complement, every 1- and 2-chip error of each, and
// 2²⁰ seeded random words.
func TestBestSymbolMatchesByteReference(t *testing.T) {
	chips := make([]byte, ChipsPerSymbol)
	check := func(w uint32) {
		for k := range chips {
			chips[k] = byte(w >> k & 1)
		}
		best, bestC, worstC := bestSymbol(w)
		rb, rc, rw := bestWorstSymbolBytes(chips)
		if best != rb || bestC != rc || worstC != rw {
			t.Fatalf("word %#08x: bestSymbol (%d, %d, %d), byte reference (%d, %d, %d)",
				w, best, bestC, worstC, rb, rc, rw)
		}
		if sb, sc := bestSymbolBytes(chips); best != sb || bestC != sc {
			t.Fatalf("word %#08x: bestSymbol (%d, %d), bestSymbolBytes (%d, %d)", w, best, bestC, sb, sc)
		}
	}
	var words []uint32
	for s := range ChipSequences {
		w := packChips(ChipSequences[s][:])
		if w != chipWords[s] {
			t.Fatalf("chipWords[%d] = %#08x, want %#08x", s, chipWords[s], w)
		}
		words = append(words, w, ^w)
	}
	for _, w := range words {
		check(w)
		for i := 0; i < ChipsPerSymbol; i++ {
			check(w ^ 1<<i)
			for j := i + 1; j < ChipsPerSymbol; j++ {
				check(w ^ 1<<i ^ 1<<j)
			}
		}
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 1<<20; i++ {
		check(rng.Uint32())
	}
}

// TestChipWordMatchesComplexMultiply checks chipWord's half products
// against the full complex multiply the byte receiver took per chip,
// `v := samples[idx]*inv` with real(v) or imag(v) ≥ 0, on samples and
// gains that mix random values with ±0, subnormals, ±Inf and NaN, and
// its truncation bound against the last chip's index.
func TestChipWordMatchesComplexMultiply(t *testing.T) {
	negZero := math.Copysign(0, -1)
	specials := []float64{0, negZero, 5e-324, -5e-324, math.Inf(1), math.Inf(-1), math.NaN(), 1, -1}
	rng := rand.New(rand.NewSource(8))
	pick := func() float64 {
		if rng.Intn(3) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64()
	}
	samples := make([]complex128, 300)
	for trial := 0; trial < 20000; trial++ {
		for i := range samples {
			samples[i] = complex(pick(), pick())
		}
		inv := complex(pick(), pick())
		symStart := rng.Intn(len(samples) - SymbolSamples)
		var want uint32
		for k := 0; k < ChipsPerSymbol; k++ {
			v := samples[symStart+(k+1)*SamplesPerChip] * inv
			level := real(v)
			if k%2 == 1 {
				level = imag(v)
			}
			if level >= 0 {
				want |= 1 << k
			}
		}
		if got, ok := chipWord(samples, symStart, inv); !ok || got != want {
			t.Fatalf("trial %d: chipWord %#08x (ok %v), want %#08x", trial, got, ok, want)
		}
	}
	last := len(samples) - 1 - ChipsPerSymbol*SamplesPerChip // last start whose final chip fits
	if _, ok := chipWord(samples, last, 1); !ok {
		t.Fatal("symbol ending on the last sample reported truncated")
	}
	if _, ok := chipWord(samples, last+1, 1); ok {
		t.Fatal("symbol past the capture end not reported truncated")
	}
}

func TestChipSequenceProperties(t *testing.T) {
	// All 16 sequences distinct.
	for a := 0; a < 16; a++ {
		for b := a + 1; b < 16; b++ {
			if ChipSequences[a] == ChipSequences[b] {
				t.Fatalf("sequences %d and %d identical", a, b)
			}
		}
	}
	// Autocorrelation 32, cross-correlation magnitude well below 32.
	for a := 0; a < 16; a++ {
		if c := correlateChips(ChipSequences[a][:], a); c != ChipsPerSymbol {
			t.Fatalf("autocorrelation of %d = %d", a, c)
		}
		for b := 0; b < 16; b++ {
			if a == b {
				continue
			}
			if c := correlateChips(ChipSequences[a][:], b); c > 20 || c < -20 {
				t.Fatalf("cross-correlation %d/%d = %d, |c| too high", a, b, c)
			}
		}
	}
}

func TestChipSequenceShiftStructure(t *testing.T) {
	// Symbol 1 is symbol 0 rotated right by 4 chips.
	for i := 0; i < ChipsPerSymbol; i++ {
		if ChipSequences[1][(i+4)%ChipsPerSymbol] != ChipSequences[0][i] {
			t.Fatal("symbol 1 is not symbol 0 rotated by 4")
		}
	}
	// Symbol 8 is symbol 0 with odd chips inverted.
	for i := 0; i < ChipsPerSymbol; i++ {
		want := ChipSequences[0][i]
		if i%2 == 1 {
			want ^= 1
		}
		if ChipSequences[8][i] != want {
			t.Fatal("symbol 8 odd-chip inversion broken")
		}
	}
}

func TestSymbolsBytesRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		out, err := BytesFromSymbols(SymbolsFromBytes(data))
		return err == nil && bytes.Equal(out, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, err := BytesFromSymbols(make([]byte, 3)); err == nil {
		t.Error("odd symbol count accepted")
	}
}

func TestSymbolsLowNibbleFirst(t *testing.T) {
	sym := SymbolsFromBytes([]byte{0xA3})
	if sym[0] != 0x3 || sym[1] != 0xA {
		t.Fatalf("0xA3 -> %v, want [3 10]", sym)
	}
}

func TestSpreadSymbolsValidation(t *testing.T) {
	if _, err := SpreadSymbols([]byte{16}); err == nil {
		t.Error("symbol 16 accepted")
	}
	chips, err := SpreadSymbols([]byte{0, 5})
	if err != nil || len(chips) != 64 {
		t.Fatalf("spread: %v, len %d", err, len(chips))
	}
	if !bytes.Equal(chips[32:], ChipSequences[5][:]) {
		t.Error("second symbol chips wrong")
	}
}

func TestBestSymbolDecodesCleanChips(t *testing.T) {
	for s := 0; s < 16; s++ {
		got, c, _ := bestSymbol(chipWords[s])
		if got != byte(s) || c != ChipsPerSymbol {
			t.Fatalf("symbol %d decoded as %d (corr %d)", s, got, c)
		}
	}
}

func TestBestSymbolToleratesChipErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		s := rng.Intn(16)
		w := chipWords[s]
		// Flip 5 random chips; min cross-distance is large enough to survive.
		for _, i := range rng.Perm(ChipsPerSymbol)[:5] {
			w ^= 1 << i
		}
		if got, _, _ := bestSymbol(w); got != byte(s) {
			t.Fatalf("symbol %d with 5 chip errors decoded as %d", s, got)
		}
	}
}

// TestInvertedChipsDecodeDeterministically pins down the ZigBee codeword-
// translation behaviour: a 180° phase flip inverts all 32 chips, which the
// correlation receiver maps to a *consistent wrong symbol* with reduced
// margin — the mechanism behind the paper's differential decoding and its
// elevated ZigBee BER.
func TestInvertedChipsDecodeDeterministically(t *testing.T) {
	for s := 0; s < 16; s++ {
		got1, c1, _ := bestSymbol(^chipWords[s])
		got2, c2, _ := bestSymbol(^chipWords[s])
		if got1 != got2 || c1 != c2 {
			t.Fatal("inverted decode not deterministic")
		}
		if got1 == byte(s) {
			t.Fatalf("inverted sequence of %d still decodes to %d", s, s)
		}
		if c1 >= ChipsPerSymbol/2 {
			t.Fatalf("inverted decode margin %d unexpectedly high", c1)
		}
	}
}

func TestModulateChipsHalfSineStructure(t *testing.T) {
	chips := []byte{1, 1, 0, 0}
	s := ModulateChips(chips)
	if s.Rate != SampleRate {
		t.Fatalf("rate %g", s.Rate)
	}
	// Chip 0 (I rail, level +1) peaks at sample 4 with positive I.
	if real(s.Samples[SamplesPerChip]) <= 0 {
		t.Error("chip 0 peak not positive on I")
	}
	// Chip 1 (Q rail, +1) peaks at sample 8.
	if imag(s.Samples[2*SamplesPerChip]) <= 0 {
		t.Error("chip 1 peak not positive on Q")
	}
	// Chip 2 (I rail, -1) peaks at sample 12.
	if real(s.Samples[3*SamplesPerChip]) >= 0 {
		t.Error("chip 2 peak not negative on I")
	}
	// Unit mean power.
	if p := s.MeanPower(); math.Abs(p-1) > 1e-9 {
		t.Errorf("mean power %g", p)
	}
}

func TestTransmitReceiveClean(t *testing.T) {
	payloads := [][]byte{
		[]byte("hi"),
		[]byte("FreeRider over 802.15.4 OQPSK DSSS"),
		bytes.Repeat([]byte{0xA5}, 60),
	}
	for _, p := range payloads {
		sig, err := NewTransmitter().Transmit(p)
		if err != nil {
			t.Fatal(err)
		}
		cap := signal.New(SampleRate, len(sig.Samples)+200)
		copy(cap.Samples[80:], sig.Samples)
		f, err := NewReceiver().Receive(cap)
		if err != nil {
			t.Fatalf("payload %q: %v", p, err)
		}
		if !bytes.Equal(f.Payload, p) {
			t.Fatalf("payload mismatch: %q vs %q", f.Payload, p)
		}
		if !f.FCSOK {
			t.Fatal("FCS failed on clean channel")
		}
		if f.StartIdx != 80 {
			t.Fatalf("start %d, want 80", f.StartIdx)
		}
		if f.CorrMargin < 30 {
			t.Fatalf("clean correlation margin %g too low", f.CorrMargin)
		}
	}
}

func TestTransmitReceiveWithChannelImpairments(t *testing.T) {
	p := []byte("impaired channel test payload")
	sig, err := NewTransmitter().Transmit(p)
	if err != nil {
		t.Fatal(err)
	}
	cap := signal.New(SampleRate, len(sig.Samples)+400)
	copy(cap.Samples[133:], sig.Samples)
	// Random complex gain (attenuation + phase) and moderate noise.
	cap.Scale(complex(0.05, 0))
	cap.PhaseShift(1.2)
	cap.AddAWGN(1e-5, signal.NewNoise(77))
	f, err := NewReceiver().Receive(cap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Payload, p) || !f.FCSOK {
		t.Fatal("decode failed under gain/phase/noise")
	}
}

func TestReceiverRejectsNoise(t *testing.T) {
	cap := signal.New(SampleRate, 20000)
	cap.AddAWGN(0.01, signal.NewNoise(5))
	if _, err := NewReceiver().Receive(cap); err == nil {
		t.Error("decoded a frame from pure noise")
	}
}

func TestTransmitValidation(t *testing.T) {
	if _, err := NewTransmitter().Transmit(make([]byte, MaxPayload-1)); err == nil {
		t.Error("oversized payload accepted")
	}
}

func TestFrameDuration(t *testing.T) {
	// 20-byte payload: (4+1+1+20+2)*8 bits / 250kbps = 896us.
	got := FrameDuration(20)
	if math.Abs(got-896e-6) > 1e-9 {
		t.Fatalf("duration %g, want 896us", got)
	}
}

// TestSliceTypes pins the detection slices' template sharing that the
// scan's cost rests on: slice 0, the odd slices and the even slices from
// 2 are three templates, and each slice equals its template bit for bit.
func TestSliceTypes(t *testing.T) {
	want := [detectSegments]int{0, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1}
	if sliceType != want || len(sliceTemplates) != 3 {
		t.Fatalf("slice types %v over %d templates, want %v over 3", sliceType, len(sliceTemplates), want)
	}
	for s, typ := range sliceType {
		if !sameBits(preambleConjTemplate[s*detectSeg:(s+1)*detectSeg], sliceTemplates[typ]) {
			t.Fatalf("slice %d differs from template %d", s, typ)
		}
	}
}
