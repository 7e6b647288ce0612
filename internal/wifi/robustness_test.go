package wifi

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/signal"
)

func TestReceiveTruncatedAfterPreamble(t *testing.T) {
	sig, err := NewTransmitter().Transmit(AppendFCS(make([]byte, 500)), Rates[6])
	if err != nil {
		t.Fatal(err)
	}
	// Cut the capture right after SIGNAL: the receiver must return an
	// error, not panic or fabricate data.
	cut := PreambleLen + 2*SymbolLen
	cap := &signal.Signal{Rate: SampleRate, Samples: sig.Samples[:cut]}
	padded := appendSilence(cap, 100, 0)
	if _, err := NewReceiver().Receive(padded); err == nil {
		t.Fatal("truncated capture decoded")
	}
}

func TestReceiveCorruptedSignalField(t *testing.T) {
	sig, err := NewTransmitter().Transmit(AppendFCS(make([]byte, 100)), Rates[6])
	if err != nil {
		t.Fatal(err)
	}
	// Obliterate the SIGNAL symbol with noise: rate/length unrecoverable.
	rng := rand.New(rand.NewSource(1))
	for i := PreambleLen; i < PreambleLen+SymbolLen; i++ {
		sig.Samples[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	cap := appendSilence(sig, 100, 100)
	if pkt, err := NewReceiver().Receive(cap); err == nil && pkt.FCSOK {
		t.Fatal("packet with destroyed SIGNAL decoded cleanly")
	}
}

func TestDemapRejectsUnknownModulation(t *testing.T) {
	if _, err := demapPointInto(nil, 0, Modulation(9)); err == nil {
		t.Error("unknown modulation accepted")
	}
}

func TestModulationAndCodingStrings(t *testing.T) {
	for _, m := range []Modulation{BPSK, QPSK, QAM16, QAM64} {
		if m.String() == "" {
			t.Error("empty modulation name")
		}
	}
	for _, c := range []CodingRate{Rate1_2, Rate2_3, Rate3_4} {
		if c.String() == "" {
			t.Error("empty coding rate name")
		}
	}
}

// TestTransmitSpectralContainment: the OFDM TX must concentrate its power
// in the 52 used subcarriers (±8.1 MHz); energy near the band edge must be
// far down, which is what lets the backscatter receiver sit one channel
// away (§2.3.4).
func TestTransmitSpectralContainment(t *testing.T) {
	sig, err := NewTransmitter().Transmit(AppendFCS(make([]byte, 600)), Rates[6])
	if err != nil {
		t.Fatal(err)
	}
	const nfft = 4096
	spec, err := sig.Spectrum(nfft)
	if err != nil {
		t.Fatal(err)
	}
	binHz := SampleRate / nfft
	var inBand, outBand float64
	var nIn, nOut int
	for i, p := range spec {
		f := float64(i) * binHz
		if f > SampleRate/2 {
			f -= SampleRate
		}
		switch {
		case f > -8.2e6 && f < 8.2e6:
			inBand += p
			nIn++
		case f < -9.5e6 || f > 9.5e6:
			outBand += p
			nOut++
		}
	}
	inDensity := inBand / float64(nIn)
	outDensity := outBand / float64(nOut)
	ratio := 10 * math.Log10(inDensity/outDensity)
	if ratio < 15 {
		t.Fatalf("in-band/out-of-band density ratio %.1f dB, want >= 15", ratio)
	}
}

// craftedSignalCase is a capture whose SIGNAL symbol was built bit by bit,
// with the outcome Receive must report (want nil: a packet).
type craftedSignalCase struct {
	name string
	cap  *signal.Signal
	want error
}

// craftedDataSymbols is the number of real data symbols behind each
// crafted SIGNAL: enough for a one-byte PSDU at every rate.
const craftedDataSymbols = 2

// craftSignalSymbol encodes a SIGNAL field with the given 4-bit RATE code,
// 12-bit LENGTH and parity (flipped from even when flipParity is set)
// through the transmitter's BPSK rate-1/2 path.
func craftSignalSymbol(rateCode byte, length int, flipParity bool) []complex128 {
	b := make([]byte, 0, 24)
	for i := 3; i >= 0; i-- {
		b = append(b, rateCode>>uint(i)&1)
	}
	b = append(b, 0) // reserved
	for i := 0; i < 12; i++ {
		b = append(b, byte(length>>uint(i))&1)
	}
	parity := byte(0)
	for _, v := range b {
		parity ^= v
	}
	if flipParity {
		parity ^= 1
	}
	b = append(b, parity, 0, 0, 0, 0, 0, 0)
	td := make([]complex128, FFTSize)
	mappers[BPSK].fill(td, ConvEncode(b))
	out := make([]complex128, SymbolLen)
	if err := symbolInto(out, td, 0); err != nil {
		panic(err)
	}
	return out
}

// craftedSignalCases builds, for each of the 16 RATE codes, both parity
// values and LENGTH 0, 1, 4095 and one past the capture, a capture
// holding a real 6 Mbps preamble, the crafted SIGNAL symbol and
// craftedDataSymbols real data symbols. "One past the capture" is the
// shortest length whose data symbols overrun it (taken at 6 Mbps for the
// codes that name no rate).
func craftedSignalCases() []craftedSignalCase {
	ppdu, err := NewTransmitter().Transmit(AppendFCS(make([]byte, 20)), Rates[6])
	if err != nil {
		panic(err)
	}
	n := PreambleLen + SymbolLen + craftedDataSymbols*SymbolLen
	var out []craftedSignalCase
	for code := byte(0); code < 16; code++ {
		rate, valid := RateBySignalBits(code)
		if !valid {
			rate = Rates[6]
		}
		past := 1
		for NumDataSymbols(past, rate) <= craftedDataSymbols {
			past++
		}
		for _, flip := range []bool{false, true} {
			for _, length := range []int{0, 1, 4095, past} {
				cap := signal.New(SampleRate, n)
				copy(cap.Samples, ppdu.Samples[:n])
				copy(cap.Samples[PreambleLen:], craftSignalSymbol(code, length, flip))
				var want error
				switch {
				case flip:
					want = ErrBadSignal
				case !valid:
					want = ErrBadRate
				case length == 0:
					want = ErrBadSignal
				case length != 1:
					want = ErrTruncated
				}
				out = append(out, craftedSignalCase{
					name: fmt.Sprintf("rate%#x/len%d/flip=%v", code, length, flip),
					cap:  cap, want: want,
				})
			}
		}
	}
	return out
}

// craftedRejectAllocs is the measured allocation count of Receive on a
// capture it rejects after reading SIGNAL: the receiver's per-capture
// allocation bound when no packet comes out.
const craftedRejectAllocs = 0

// TestCraftedSignalFields drives Receive with every RATE code, both parity
// values and boundary LENGTH fields behind a real preamble. The checks run
// in field order: a bad parity is ErrBadSignal, then an unknown rate
// ErrBadRate, then a zero length ErrBadSignal, a length the capture cannot
// hold ErrTruncated, and a one-byte PSDU a packet. Nothing panics, and a
// rejected capture allocates no more than craftedRejectAllocs.
func TestCraftedSignalFields(t *testing.T) {
	// The crafting path reproduces the transmitter's own SIGNAL symbol.
	ppdu, err := NewTransmitter().Transmit(AppendFCS(make([]byte, 20)), Rates[6])
	if err != nil {
		t.Fatal(err)
	}
	sym := craftSignalSymbol(Rates[6].SignalBits, 24, false)
	for i, v := range sym {
		if ppdu.Samples[PreambleLen+i] != v {
			t.Fatalf("crafted SIGNAL sample %d = %v, transmitter's %v", i, v, ppdu.Samples[PreambleLen+i])
		}
	}

	rx := NewReceiver()
	for _, c := range craftedSignalCases() {
		pkt, err := rx.Receive(c.cap)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: Receive error %v, want %v", c.name, err, c.want)
			continue
		}
		if err == nil && (pkt == nil || len(pkt.PSDU) != 1) {
			t.Errorf("%s: packet %+v, want a one-byte PSDU", c.name, pkt)
		}
		if err == nil || raceEnabled {
			continue
		}
		if allocs := testing.AllocsPerRun(5, func() { rx.Receive(c.cap) }); allocs > craftedRejectAllocs {
			t.Errorf("%s: rejected capture costs %v allocs, bound %d", c.name, allocs, craftedRejectAllocs)
		}
	}
}
