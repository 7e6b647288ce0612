package wifi

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bits"
)

func TestRateTable(t *testing.T) {
	for mbps, r := range Rates {
		if r.Mbps != mbps {
			t.Errorf("rate %d: Mbps field %d", mbps, r.Mbps)
		}
		if r.NCBPS != NumData*r.NBPSC {
			t.Errorf("rate %d: NCBPS %d != 48*NBPSC %d", mbps, r.NCBPS, NumData*r.NBPSC)
		}
		// NDBPS = NCBPS * coding rate.
		var num, den int
		switch r.Coding {
		case Rate1_2:
			num, den = 1, 2
		case Rate2_3:
			num, den = 2, 3
		case Rate3_4:
			num, den = 3, 4
		}
		if r.NDBPS*den != r.NCBPS*num {
			t.Errorf("rate %d: NDBPS %d inconsistent with NCBPS %d at %v", mbps, r.NDBPS, r.NCBPS, r.Coding)
		}
		// Data rate = NDBPS / 4us.
		if got := float64(r.NDBPS) / SymbolTime / 1e6; math.Abs(got-float64(mbps)) > 0.01 {
			t.Errorf("rate %d: implied rate %.2f Mbps", mbps, got)
		}
	}
	if _, ok := RateBySignalBits(0b1101); !ok {
		t.Error("RATE bits for 6 Mbps not found")
	}
	if _, ok := RateBySignalBits(0b0000); ok {
		t.Error("invalid RATE bits accepted")
	}
}

func TestDataSubcarriers(t *testing.T) {
	seen := map[int]bool{}
	for _, k := range DataSubcarriers {
		if k == 0 || k == 7 || k == -7 || k == 21 || k == -21 {
			t.Errorf("data subcarrier on pilot/DC index %d", k)
		}
		if k < -26 || k > 26 {
			t.Errorf("subcarrier %d out of range", k)
		}
		if seen[k] {
			t.Errorf("duplicate subcarrier %d", k)
		}
		seen[k] = true
	}
	if len(seen) != 48 {
		t.Fatalf("%d distinct data subcarriers, want 48", len(seen))
	}
}

func TestScramblerKnownSequence(t *testing.T) {
	// 802.11-2012 §17.3.5.4: all-ones seed produces the 127-bit sequence
	// starting 0000 1110 1111 0010 ...
	got := ScramblingSequence(0x7F, 16)
	want := []byte{0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0}
	if !bytes.Equal(got, want) {
		t.Fatalf("scrambler sequence %v, want %v", got, want)
	}
}

func TestScramblerPeriod127(t *testing.T) {
	seq := ScramblingSequence(0x35, 254)
	if !bytes.Equal(seq[:127], seq[127:]) {
		t.Fatal("scrambler not 127-periodic")
	}
	ones := 0
	for _, b := range seq[:127] {
		ones += int(b)
	}
	if ones != 64 {
		t.Fatalf("ones per period = %d, want 64", ones)
	}
}

func TestScramblerSelfInverse(t *testing.T) {
	data := bits.FromBytes([]byte("codeword translation"))
	enc := NewScrambler(0x2A).Scramble(append([]byte(nil), data...))
	dec := NewScrambler(0x2A).Scramble(append([]byte(nil), enc...))
	if !bytes.Equal(dec, data) {
		t.Fatal("scramble twice with same seed is not identity")
	}
}

func TestRecoverScramblerSeed(t *testing.T) {
	for _, seed := range []byte{1, 0x2A, 0x5D, 0x7F} {
		first7 := ScramblingSequence(seed, 7)
		got := RecoverScramblerSeed(first7)
		if !bytes.Equal(ScramblingSequence(got, 32), ScramblingSequence(seed, 32)) {
			t.Errorf("seed %#x: recovered %#x produces different sequence", seed, got)
		}
	}
}

// TestScramblerComplementProperty verifies FreeRider's §3.2.1 insight for
// eq. 8: when the tag complements the scrambled stream in flight, the
// receiver's descrambler outputs the complement of the original data —
// the tag's XOR survives the whitening transparently.
func TestScramblerComplementProperty(t *testing.T) {
	data := bits.FromBytes([]byte("productive traffic"))
	scrambled := NewScrambler(0x4C).Scramble(append([]byte(nil), data...))
	flipped := make([]byte, len(scrambled))
	for i := range scrambled {
		flipped[i] = scrambled[i] ^ 1 // tag data one over the whole stream
	}
	descrambled := NewScrambler(0x4C).Scramble(flipped)
	for i := range descrambled {
		if descrambled[i] != data[i]^1 {
			t.Fatalf("bit %d: descrambled complement broken", i)
		}
	}
}

func TestPilotPolarityFirstValues(t *testing.T) {
	// Standard sequence p_0.. = 1,1,1,1,-1,-1,-1,1,...
	want := []float64{1, 1, 1, 1, -1, -1, -1, 1}
	for i, w := range want {
		if got := PilotPolarity(i); got != w {
			t.Fatalf("p_%d = %g, want %g", i, got, w)
		}
	}
	if PilotPolarity(127) != PilotPolarity(0) {
		t.Error("pilot polarity not 127-periodic")
	}
}

func TestConvEncodeKnownState(t *testing.T) {
	// Encoding all zeros yields all zeros; a single 1 produces the two
	// generator impulse responses.
	out := ConvEncode([]byte{0, 0, 0, 0})
	for _, b := range out {
		if b != 0 {
			t.Fatal("all-zero input must give all-zero output")
		}
	}
	out = ConvEncode([]byte{1, 0, 0, 0, 0, 0, 0})
	// g0 = 133o = 1011011b, g1 = 171o = 1111001b. With the input bit in the
	// MSB of the register, the impulse response reads the generator taps
	// from MSB to LSB over successive shifts.
	wantA := []byte{1, 0, 1, 1, 0, 1, 1} // 133 octal bits MSB->LSB
	wantB := []byte{1, 1, 1, 1, 0, 0, 1} // 171 octal
	for i := 0; i < 7; i++ {
		if out[2*i] != wantA[i] || out[2*i+1] != wantB[i] {
			t.Fatalf("impulse response step %d = (%d,%d), want (%d,%d)",
				i, out[2*i], out[2*i+1], wantA[i], wantB[i])
		}
	}
}

// TestConvEncoderComplementProperty verifies FreeRider's eq. 9 insight:
// because both generators have an odd number of taps, complementing the
// input stream complements both coded streams (in steady state, i.e. once
// the register is filled with complemented history).
func TestConvEncoderComplementProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := make([]byte, 64)
	for i := range in {
		in[i] = byte(rng.Intn(2))
	}
	inv := make([]byte, len(in))
	for i := range in {
		inv[i] = in[i] ^ 1
	}
	a := ConvEncode(in)
	b := ConvEncode(inv)
	// Skip the first 6 steps (register warm-up).
	for i := 12; i < len(a); i++ {
		if a[i] == b[i] {
			t.Fatalf("coded bit %d identical under input complement", i)
		}
	}
}

func TestViterbiCleanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		msg := make([]byte, 120)
		for i := range msg {
			msg[i] = byte(rng.Intn(2))
		}
		// Append tail.
		in := append(append([]byte(nil), msg...), make([]byte, TailBits)...)
		dec, err := ViterbiDecodeInto(make([]byte, len(in)), ConvEncode(in))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dec[:len(msg)], msg) {
			t.Fatalf("trial %d: clean decode mismatch", trial)
		}
	}
}

func TestViterbiCorrectsErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	msg := make([]byte, 200)
	for i := range msg {
		msg[i] = byte(rng.Intn(2))
	}
	in := append(append([]byte(nil), msg...), make([]byte, TailBits)...)
	coded := ConvEncode(in)
	// Flip ~2% of coded bits, spread out.
	for i := 10; i < len(coded); i += 50 {
		coded[i] ^= 1
	}
	dec, err := ViterbiDecodeInto(make([]byte, len(in)), coded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec[:len(msg)], msg) {
		t.Fatal("Viterbi failed to correct sparse errors")
	}
}

func TestViterbiOddLengthRejected(t *testing.T) {
	dst := make([]byte, 2)
	if _, err := ViterbiDecodeInto(dst, make([]byte, 3)); err == nil {
		t.Error("odd coded length accepted")
	}
	if _, err := ViterbiDecodeInto(dst[:1], make([]byte, 4)); err == nil {
		t.Error("short destination accepted")
	}
	out, err := ViterbiDecodeInto(dst, nil)
	if err != nil || out != nil {
		t.Error("empty input should decode to nothing")
	}
}

// TestViterbiDecodeIntoZeroAlloc pins the decode kernel allocation budget:
// with a warm arena pool and a caller-supplied output buffer, an int16
// Viterbi decode performs zero heap allocations.
func TestViterbiDecodeIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(35))
	msg := make([]byte, 500)
	for i := range msg {
		msg[i] = byte(rng.Intn(2))
	}
	coded := ConvEncode(append(msg, make([]byte, TailBits)...))
	dst := make([]byte, len(coded)/2)
	if _, err := ViterbiDecodeInto(dst, coded); err != nil {
		t.Fatal(err) // warm the arena pool
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := ViterbiDecodeInto(dst, coded); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ViterbiDecodeInto: %v allocs/op, want 0", allocs)
	}
}

func TestPunctureDepunctureRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, cr := range []CodingRate{Rate1_2, Rate2_3, Rate3_4} {
		nInfo := 144
		coded := make([]byte, nInfo*2)
		for i := range coded {
			coded[i] = byte(rng.Intn(2))
		}
		p, err := Puncture(coded, cr)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Depuncture(p, cr, nInfo)
		if err != nil {
			t.Fatal(err)
		}
		if len(d) != len(coded) {
			t.Fatalf("%v: depunctured length %d, want %d", cr, len(d), len(coded))
		}
		for i := range coded {
			if d[i] != erasure && d[i] != coded[i] {
				t.Fatalf("%v: surviving bit %d altered", cr, i)
			}
		}
		// Check the advertised rate.
		wantLen := map[CodingRate]int{Rate1_2: 288, Rate2_3: 216, Rate3_4: 192}[cr]
		if len(p) != wantLen {
			t.Fatalf("%v: punctured length %d, want %d", cr, len(p), wantLen)
		}
	}
}

func TestPuncturedViterbiRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, cr := range []CodingRate{Rate2_3, Rate3_4} {
		msg := make([]byte, 210)
		for i := range msg {
			msg[i] = byte(rng.Intn(2))
		}
		in := append(append([]byte(nil), msg...), make([]byte, TailBits)...)
		p, err := Puncture(ConvEncode(in), cr)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Depuncture(p, cr, len(in))
		if err != nil {
			t.Fatal(err)
		}
		dec, err := ViterbiDecodeInto(make([]byte, len(in)), d)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dec[:len(msg)], msg) {
			t.Fatalf("%v: punctured round trip failed", cr)
		}
	}
}

func TestInterleaverRoundTripAllRates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for mbps, r := range Rates {
		in := make([]byte, r.NCBPS)
		for i := range in {
			in[i] = byte(rng.Intn(2))
		}
		il, err := Interleave(in, r)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]byte, r.NCBPS)
		if err := deinterleaveInto(out, il, r); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, in) {
			t.Fatalf("rate %d: interleaver round trip failed", mbps)
		}
		// The interleaver must be a permutation (no bit lost/duplicated).
		if bytes.Count(il, []byte{1}) != bytes.Count(in, []byte{1}) {
			t.Fatalf("rate %d: interleaver changed population count", mbps)
		}
	}
}

func TestInterleaverSpreadsAdjacentBits(t *testing.T) {
	// Adjacent coded bits must map to subcarriers far apart (at least 2
	// subcarriers for BPSK per the NCBPS/16 row structure).
	r := Rates[6]
	in := make([]byte, r.NCBPS)
	in[0], in[1] = 1, 1
	il, _ := Interleave(in, r)
	idx := []int{}
	for i, b := range il {
		if b == 1 {
			idx = append(idx, i)
		}
	}
	if len(idx) != 2 {
		t.Fatal("lost bits")
	}
	if d := idx[1] - idx[0]; d < 2 {
		t.Fatalf("adjacent coded bits separated by %d positions", d)
	}
}

func TestInterleaveSymbolsValidation(t *testing.T) {
	r := Rates[6]
	if _, err := InterleaveSymbols(make([]byte, r.NCBPS+1), r); err == nil {
		t.Error("non-multiple length accepted")
	}
	if _, err := Interleave(make([]byte, 5), r); err == nil {
		t.Error("wrong per-symbol length accepted")
	}
}

func TestMapDemapAllModulations(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	mods := []struct {
		m Modulation
		n int
	}{{BPSK, 1}, {QPSK, 2}, {QAM16, 4}, {QAM64, 6}}
	for _, mc := range mods {
		for trial := 0; trial < 200; trial++ {
			in := make([]byte, mc.n)
			for i := range in {
				in[i] = byte(rng.Intn(2))
			}
			pt, err := mapPoint(in, mc.m)
			if err != nil {
				t.Fatal(err)
			}
			out, err := demapPointInto(nil, pt, mc.m)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, in) {
				t.Fatalf("%v: %v -> %v -> %v", mc.m, in, pt, out)
			}
		}
	}
}

func TestConstellationUnitPower(t *testing.T) {
	mods := []struct {
		m Modulation
		n int
	}{{BPSK, 1}, {QPSK, 2}, {QAM16, 4}, {QAM64, 6}}
	for _, mc := range mods {
		var p float64
		count := 1 << mc.n
		for v := 0; v < count; v++ {
			in := make([]byte, mc.n)
			for i := range in {
				in[i] = byte(v>>uint(mc.n-1-i)) & 1
			}
			pt, err := mapPoint(in, mc.m)
			if err != nil {
				t.Fatal(err)
			}
			p += real(pt)*real(pt) + imag(pt)*imag(pt)
		}
		p /= float64(count)
		if math.Abs(p-1) > 1e-9 {
			t.Errorf("%v: mean constellation power %g, want 1", mc.m, p)
		}
	}
}

func TestGrayMappingSingleBitNeighbours(t *testing.T) {
	// In a Gray-coded constellation, horizontally adjacent points differ in
	// exactly one bit. Check 16-QAM I axis.
	seen := map[float64][]byte{}
	for v := 0; v < 4; v++ {
		in := []byte{byte(v >> 1), byte(v & 1), 0, 0}
		pt, err := mapPoint(in, QAM16)
		if err != nil {
			t.Fatal(err)
		}
		seen[real(pt)] = append([]byte(nil), in[:2]...)
	}
	levels := []float64{-3, -1, 1, 3}
	k := kmod[QAM16]
	for i := 0; i+1 < len(levels); i++ {
		a := seen[levels[i]*k]
		b := seen[levels[i+1]*k]
		diff := 0
		for j := range a {
			if a[j] != b[j] {
				diff++
			}
		}
		if diff != 1 {
			t.Errorf("levels %g and %g differ in %d bits, want 1", levels[i], levels[i+1], diff)
		}
	}
}

func TestSymbolAssemblyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := Rates[54]
	in := make([]byte, r.NCBPS)
	for i := range in {
		in[i] = byte(rng.Intn(2))
	}
	pts, err := mapSymbolBits(in, r)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]complex128, FFTSize)
	for i, bin := range dataBins {
		buf[bin] = pts[i]
	}
	td := make([]complex128, SymbolLen)
	if err := symbolInto(td, buf, 3); err != nil {
		t.Fatal(err)
	}
	// CP must equal the symbol tail.
	for i := 0; i < CPLen; i++ {
		if td[i] != td[FFTSize+i] {
			t.Fatal("cyclic prefix mismatch")
		}
	}
	var data [NumData]complex128
	var pilots [NumPilots]complex128
	if err := disassembleSymbolBuf(td, nil, buf, &data, &pilots); err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if d := data[i] - pts[i]; math.Hypot(real(d), imag(d)) > 1e-9 {
			t.Fatalf("subcarrier %d: %v != %v", i, data[i], pts[i])
		}
	}
	// Pilot values: base polarity times p_3.
	p := PilotPolarity(3)
	for i, pl := range PilotSubcarriers {
		want := complex(pl.Polarity*p, 0)
		if d := pilots[i] - want; math.Hypot(real(d), imag(d)) > 1e-9 {
			t.Fatalf("pilot %d = %v, want %v", i, pilots[i], want)
		}
	}
	out, err := demapSymbolInto(nil, &data, r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, in) {
		t.Fatal("symbol bits round trip failed")
	}
}

func TestPreambleStructure(t *testing.T) {
	templateOnce.Do(initTemplates)
	p := preambleTmpl
	if len(p) != PreambleLen {
		t.Fatalf("preamble length %d, want %d", len(p), PreambleLen)
	}
	// STF is 16-sample periodic over the first 160 samples.
	for i := 16; i < 160; i++ {
		if d := p[i] - p[i-16]; math.Hypot(real(d), imag(d)) > 1e-9 {
			t.Fatalf("STF not periodic at %d", i)
		}
	}
	// The two LTF copies are identical.
	for i := 0; i < 64; i++ {
		if d := p[192+i] - p[256+i]; math.Hypot(real(d), imag(d)) > 1e-9 {
			t.Fatalf("LTF copies differ at %d", i)
		}
	}
	// LTF CP equals LTF tail.
	for i := 0; i < 32; i++ {
		if d := p[160+i] - p[288+i]; math.Hypot(real(d), imag(d)) > 1e-9 {
			t.Fatalf("LTF CP mismatch at %d", i)
		}
	}
}

func TestTransmitReceiveCleanChannel(t *testing.T) {
	for _, mbps := range []int{6, 9, 12, 18, 24, 36, 48, 54} {
		tx := NewTransmitter()
		psdu := AppendFCS([]byte("FreeRider codeword translation over 802.11g OFDM!"))
		sig, err := tx.Transmit(psdu, Rates[mbps])
		if err != nil {
			t.Fatal(err)
		}
		// Pad with leading/trailing silence.
		cap := appendSilence(sig, 100, 100)
		rx := NewReceiver()
		if start, _ := rx.DetectPreamble(cap); start != 100 {
			t.Fatalf("rate %d: start %d, want 100", mbps, start)
		}
		// A wrong SIGNAL rate would demodulate the data symbols at another
		// rate, so the PSDU equality also checks the decoded rate.
		pkt, err := rx.Receive(cap)
		if err != nil {
			t.Fatalf("rate %d: %v", mbps, err)
		}
		if !bytes.Equal(pkt.PSDU, psdu) {
			t.Fatalf("rate %d: PSDU mismatch", mbps)
		}
		if !pkt.FCSOK {
			t.Fatalf("rate %d: FCS check failed", mbps)
		}
	}
}

func TestTransmitPSDUValidation(t *testing.T) {
	tx := NewTransmitter()
	if _, err := tx.Transmit(nil, Rates[6]); err == nil {
		t.Error("empty PSDU accepted")
	}
	if _, err := tx.Transmit(make([]byte, 4096), Rates[6]); err == nil {
		t.Error("oversized PSDU accepted")
	}
}

func TestReceiverNoPacket(t *testing.T) {
	capSig := newNoise(8000, 0.01, 11)
	if _, err := NewReceiver().Receive(capSig); err == nil {
		t.Error("decoded a packet from pure noise")
	}
}

func TestTransmitterRotatesScramblerSeed(t *testing.T) {
	tx := NewTransmitter()
	s0 := tx.ScramblerSeed
	if _, err := tx.Transmit([]byte{1, 2, 3, 4, 5}, Rates[6]); err != nil {
		t.Fatal(err)
	}
	if tx.ScramblerSeed == s0 {
		t.Error("seed did not rotate")
	}
	tx.FixedSeed = true
	s1 := tx.ScramblerSeed
	if _, err := tx.Transmit([]byte{1, 2, 3, 4, 5}, Rates[6]); err != nil {
		t.Fatal(err)
	}
	if tx.ScramblerSeed != s1 {
		t.Error("fixed seed rotated")
	}
}

func TestNumDataSymbols(t *testing.T) {
	// 100-byte PSDU at 6 Mbps: 16+800+6 = 822 bits / 24 = 34.25 -> 35.
	if n := NumDataSymbols(100, Rates[6]); n != 35 {
		t.Fatalf("NumDataSymbols = %d, want 35", n)
	}
	// At 54 Mbps: 822/216 -> 4.
	if n := NumDataSymbols(100, Rates[54]); n != 4 {
		t.Fatalf("NumDataSymbols = %d, want 4", n)
	}
}

func TestPacketDuration(t *testing.T) {
	// Preamble 16us + SIGNAL 4us + 35 symbols * 4us = 160us.
	got := PacketDuration(100, Rates[6])
	if math.Abs(got-160e-6) > 1e-9 {
		t.Fatalf("duration = %g, want 160us", got)
	}
}

func TestParseSignalRejectsBadParity(t *testing.T) {
	b := make([]byte, 24)
	// RATE 1101 (6 Mbps), length 10, parity deliberately wrong.
	b[0], b[1], b[2], b[3] = 1, 1, 0, 1
	b[5+1], b[5+3] = 1, 0 // length bits: 2
	b[17] = 1             // wrong parity
	if _, _, err := parseSignal(b); err == nil {
		t.Error("bad parity accepted")
	}
}

func TestFCSHelpers(t *testing.T) {
	frame := []byte("a MAC frame body")
	psdu := AppendFCS(frame)
	if len(psdu) != len(frame)+4 {
		t.Fatalf("PSDU length %d", len(psdu))
	}
	if !checkFCS(psdu) {
		t.Fatal("fresh FCS does not verify")
	}
	psdu[0] ^= 0xFF
	if checkFCS(psdu) {
		t.Fatal("corrupted frame passed FCS")
	}
	if checkFCS([]byte{1, 2, 3}) {
		t.Fatal("short PSDU passed FCS")
	}
}

func TestAppendFCSDoesNotAliasInput(t *testing.T) {
	f := func(frame []byte) bool {
		if len(frame) == 0 {
			return true
		}
		orig := append([]byte(nil), frame...)
		psdu := AppendFCS(frame)
		psdu[0] ^= 0xFF
		return bytes.Equal(frame, orig)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
