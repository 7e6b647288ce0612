package bluetooth

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/signal"
)

func TestWhitenSelfInverse(t *testing.T) {
	f := func(data []byte, seed byte) bool {
		in := make([]byte, len(data))
		for i := range in {
			in[i] = data[i] & 1
		}
		w := Whiten(append([]byte(nil), in...), seed)
		back := Whiten(append([]byte(nil), w...), seed)
		return bytes.Equal(back, in)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWhitenActuallyWhitens(t *testing.T) {
	zeros := make([]byte, 128)
	w := Whiten(append([]byte(nil), zeros...), 0x53)
	ones := 0
	for _, b := range w {
		ones += int(b)
	}
	if ones < 40 || ones > 90 {
		t.Fatalf("whitened all-zeros has %d/128 ones; not balanced", ones)
	}
}

func TestModulateBitsConstantEnvelope(t *testing.T) {
	s := ModulateBits([]byte{1, 0, 1, 1, 0, 0, 1, 0})
	for i, v := range s.Samples {
		if m := math.Hypot(real(v), imag(v)); math.Abs(m-1) > 1e-9 {
			t.Fatalf("sample %d magnitude %g, want 1 (constant envelope)", i, m)
		}
	}
	if s.Rate != SampleRate {
		t.Fatalf("rate %g", s.Rate)
	}
}

func TestModulationIndex(t *testing.T) {
	if math.Abs(ModulationIndex-0.5) > 1e-12 {
		t.Fatalf("modulation index %g, want 0.5 (paper §3.1)", ModulationIndex)
	}
}

// Discriminate is discriminateInto into a fresh slice.
func Discriminate(s *signal.Signal) []float64 {
	out := make([]float64, len(s.Samples))
	discriminateInto(out, s)
	return out
}

func TestDiscriminatorRecoversFrequency(t *testing.T) {
	// A long run of 1s settles the Gaussian filter to +Deviation.
	s := ModulateBits([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	disc := Discriminate(s)
	mid := disc[len(disc)/2]
	if math.Abs(mid-1) > 0.02 {
		t.Fatalf("steady-state discriminator output %g, want +1", mid)
	}
	s0 := ModulateBits([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	disc0 := Discriminate(s0)
	if math.Abs(disc0[len(disc0)/2]+1) > 0.02 {
		t.Fatalf("steady-state zero output %g, want -1", disc0[len(disc0)/2])
	}
}

func TestTransmitReceiveClean(t *testing.T) {
	payloads := [][]byte{
		{0x42},
		[]byte("FreeRider over GFSK"),
		bytes.Repeat([]byte{0x3C}, 100),
	}
	for _, p := range payloads {
		sig, err := NewTransmitter().Transmit(p)
		if err != nil {
			t.Fatal(err)
		}
		cap := signal.New(SampleRate, len(sig.Samples)+300)
		copy(cap.Samples[120:], sig.Samples)
		f, err := NewReceiver().Receive(cap)
		if err != nil {
			t.Fatalf("payload len %d: %v", len(p), err)
		}
		if !bytes.Equal(f.Payload, p) {
			t.Fatalf("payload mismatch")
		}
		if !f.CRCOK {
			t.Fatal("CRC failed on clean channel")
		}
	}
}

func TestTransmitReceiveNoisyAndRotated(t *testing.T) {
	p := []byte("noisy FSK channel")
	sig, _ := NewTransmitter().Transmit(p)
	cap := signal.New(SampleRate, len(sig.Samples)+500)
	copy(cap.Samples[201:], sig.Samples)
	cap.Scale(complex(0.02, 0))
	cap.PhaseShift(2.5) // FM demod is phase-agnostic
	cap.AddAWGN(4e-6, signal.NewNoise(8))
	f, err := NewReceiver().Receive(cap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Payload, p) || !f.CRCOK {
		t.Fatal("decode failed under noise")
	}
}

func TestReceiverRejectsNoise(t *testing.T) {
	cap := signal.New(SampleRate, 30000)
	cap.AddAWGN(0.01, signal.NewNoise(4))
	if _, err := NewReceiver().Receive(cap); err == nil {
		t.Error("decoded a frame from pure noise")
	}
}

func TestTransmitValidation(t *testing.T) {
	if _, err := NewTransmitter().Transmit(make([]byte, MaxPayload+1)); err == nil {
		t.Error("oversized payload accepted")
	}
}

func TestFrameDuration(t *testing.T) {
	// 10-byte payload: 8+32+(1+10+3)*8 = 152 bits -> 152us.
	if d := FrameDuration(10); math.Abs(d-152e-6) > 1e-12 {
		t.Fatalf("duration %g", d)
	}
}

// TestSSBShiftOnlyFlipsHalf demonstrates why the paper cannot use single-
// sideband shifting for FSK (§3.2.3): an SSB shift by -|f1-f0| translates
// codeword f1 into f0, but pushes f0 segments out of the channel entirely,
// so roughly half the bits carry no in-band codeword and decode at chance.
// The double-sideband RF-switch mixer fixes this because each bit polarity
// takes the opposite sideband.
func TestSSBShiftOnlyFlipsHalf(t *testing.T) {
	p := []byte{0xC3, 0x5A, 0x0F}
	tx := NewTransmitter()
	sig, err := tx.Transmit(p)
	if err != nil {
		t.Fatal(err)
	}
	txBits, err := tx.FrameBits(p)
	if err != nil {
		t.Fatal(err)
	}

	shifted := sig.Clone().FrequencyShift(-CodewordDelta)
	capSh := signal.New(SampleRate, len(shifted.Samples)+200)
	copy(capSh.Samples[100:], shifted.Samples)

	got := NewReceiver().Demod(capSh).RawBitsAt(100, len(txBits))
	// Bits transmitted as 1 sit at +250 kHz and translate in-band to
	// -250 kHz: they must decode flipped (to 0). Count only those.
	ones, onesFlipped := 0, 0
	for i := range got {
		if txBits[i] == 1 {
			ones++
			if got[i] == 0 {
				onesFlipped++
			}
		}
	}
	if onesFlipped < ones*7/10 {
		t.Fatalf("only %d/%d one-bits translated by the SSB shift", onesFlipped, ones)
	}
	// Overall the SSB shift must NOT look like a clean complement.
	flipped := 0
	for i := range got {
		if got[i] != txBits[i] {
			flipped++
		}
	}
	if flipped > len(got)*85/100 {
		t.Fatalf("SSB shift flipped %d/%d bits; expected roughly half-broken", flipped, len(got))
	}
}

// TestSquareWaveMirrorFlipsBits verifies eq. 6 + eq. 10 together: the ±1
// square-wave mixer produces both sidebands, the receiver channel filter
// keeps exactly the translated codeword for each bit polarity, and raw bits
// decode complemented. Bits inside runs flip with full margin; isolated
// alternating bits land on the channel edge (Gaussian ISI halves their
// deviation) and are unreliable — the physical reason the paper's Bluetooth
// tag BER (~1e-2 even at close range) is the highest of its three radios,
// and why the tag spreads one data bit over many FSK bits.
func TestSquareWaveMirrorFlipsBits(t *testing.T) {
	p := []byte{0x96, 0x69}
	tx := NewTransmitter()
	sig, err := tx.Transmit(p)
	if err != nil {
		t.Fatal(err)
	}
	txBits, err := tx.FrameBits(p)
	if err != nil {
		t.Fatal(err)
	}

	mixed := sig.Clone().SquareWaveMix(CodewordDelta, 0.3)
	capM := signal.New(SampleRate, len(mixed.Samples)+200)
	copy(capM.Samples[100:], mixed.Samples)

	got := NewReceiver().Demod(capM).RawBitsAt(100, len(txBits))
	flipped, runFlipped, runTotal := 0, 0, 0
	for i := range got {
		if got[i] != txBits[i] {
			flipped++
		}
		// "Run" bits share polarity with both neighbours.
		if i > 0 && i < len(got)-1 && txBits[i] == txBits[i-1] && txBits[i] == txBits[i+1] {
			runTotal++
			if got[i] != txBits[i] {
				runFlipped++
			}
		}
	}
	if flipped < len(got)*7/10 {
		t.Fatalf("only %d/%d bits complemented overall", flipped, len(got))
	}
	if runFlipped < runTotal*95/100 {
		t.Fatalf("run bits flipped %d/%d; the DSB translation is broken", runFlipped, runTotal)
	}
}

// TestRawBitsMatchTransmitted ties RawBitsAt to the TX bit stream on an
// unmodified channel.
func TestRawBitsMatchTransmitted(t *testing.T) {
	p := []byte("raw bit reference")
	tx := NewTransmitter()
	sig, _ := tx.Transmit(p)
	txBits, _ := tx.FrameBits(p)
	cap := signal.New(SampleRate, len(sig.Samples)+200)
	copy(cap.Samples[100:], sig.Samples)
	got := NewReceiver().Demod(cap).RawBitsAt(100, len(txBits))
	if !bytes.Equal(got, txBits) {
		t.Fatal("raw bits differ from transmitted bits on a clean channel")
	}
}
