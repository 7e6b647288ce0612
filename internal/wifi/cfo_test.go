package wifi

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/signal"
)

func cfoCapture(t *testing.T, psdu []byte, cfoHz float64, noise float64, seed int64) *signal.Signal {
	t.Helper()
	tx := NewTransmitter()
	sig, err := tx.Transmit(psdu, Rates[6])
	if err != nil {
		t.Fatal(err)
	}
	cap := appendSilence(sig, 200, 200)
	cap.FrequencyShift(cfoHz)
	if noise > 0 {
		cap.AddAWGN(noise, signal.NewNoise(seed))
	}
	return cap
}

func TestEstimateCFOFromLTF(t *testing.T) {
	for _, cfo := range []float64{0, 1e3, -7e3, 30e3, -48e3} {
		cap := cfoCapture(t, AppendFCS(make([]byte, 100)), cfo, 0, 1)
		got := estimateCFOFromLTF(cap.Samples[200+160 : 200+320])
		if math.Abs(got-cfo) > 200 {
			t.Errorf("cfo %g: estimated %g", cfo, got)
		}
	}
}

func TestDecodeUnderCFO(t *testing.T) {
	psdu := AppendFCS([]byte("packet riding a 30 kHz offset carrier, well within 802.11's 20 ppm"))
	for _, cfo := range []float64{5e3, -12e3, 30e3, -40e3} {
		cap := cfoCapture(t, psdu, cfo, 1e-4, 2)
		pkt, err := NewReceiver().Receive(cap)
		if err != nil {
			t.Fatalf("cfo %g: %v", cfo, err)
		}
		if !bytes.Equal(pkt.PSDU, psdu) || !pkt.FCSOK {
			t.Fatalf("cfo %g: payload corrupted", cfo)
		}
	}
}

func TestBlindTrackerSurvivesResidualDrift(t *testing.T) {
	// Long packet (1500 B ≈ 2 ms) with a small residual offset the
	// LTF/CP estimators are deliberately denied (inject after their
	// correction range by using a tiny CFO and high noise on the
	// preamble): end-to-end decode must still succeed thanks to the
	// per-symbol squaring tracker.
	psdu := AppendFCS(make([]byte, 1500))
	cap := cfoCapture(t, psdu, 300, 2e-4, 4)
	pkt, err := NewReceiver().Receive(cap)
	if err != nil {
		t.Fatal(err)
	}
	if !pkt.FCSOK {
		t.Fatal("long packet with residual drift failed FCS")
	}
}

func TestPhaseTrackerTransparentToTagFlips(t *testing.T) {
	// The core property: blind phase correction must NOT erase π flips.
	// Apply a 180° flip to a block of data symbols plus a global 20°
	// rotation drift, and verify the tracker removes the drift while the
	// flip survives demapping (bits inverted exactly in the flipped
	// region).
	psdu := AppendFCS(make([]byte, 300))
	tx := NewTransmitter()
	tx.FixedSeed = true
	sig, err := tx.Transmit(psdu, Rates[6])
	if err != nil {
		t.Fatal(err)
	}
	clean := appendSilence(sig, 100, 100)
	refPkt, err := NewReceiver().Receive(clean)
	if err != nil {
		t.Fatal(err)
	}

	// Fresh copy: flip symbols 10..20 of the data region and rotate all.
	tx2 := NewTransmitter()
	tx2.FixedSeed = true
	tx2.ScramblerSeed = tx.ScramblerSeed
	sig2, err := tx2.Transmit(psdu, Rates[6])
	if err != nil {
		t.Fatal(err)
	}
	dataStart := PreambleLen + SymbolLen
	for i := dataStart + 10*SymbolLen; i < dataStart+20*SymbolLen; i++ {
		sig2.Samples[i] = -sig2.Samples[i]
	}
	sig2.PhaseShift(20 * math.Pi / 180)
	cap := appendSilence(sig2, 100, 100)

	pkt, err := NewReceiver().Receive(cap)
	if err != nil {
		t.Fatal(err)
	}
	// Bits from symbols 10..19 must be complemented relative to the clean
	// decode. The Viterbi decoder makes a handful of errors at the flip
	// edges that can spill into the adjacent symbol (§3.2.1's boundary
	// errors, the reason the tag uses multi-symbol redundancy), so allow
	// leakage within one symbol of each edge but nowhere else.
	r6 := Rates[6]
	diff, leakage := 0, 0
	for i := range pkt.RawBits {
		sym := i / r6.NDBPS
		flipped := pkt.RawBits[i] != refPkt.RawBits[i]
		switch {
		case sym >= 10 && sym < 20:
			if flipped {
				diff++
			}
		case sym == 9 || sym == 20:
			if flipped {
				leakage++
			}
		default:
			if flipped {
				t.Fatalf("bit %d (symbol %d) flipped far from the tag region", i, sym)
			}
		}
	}
	want := 10 * r6.NDBPS
	if diff < want*85/100 {
		t.Fatalf("only %d/%d tag-region bits inverted; tracker erased the flip?", diff, want)
	}
	if leakage > r6.NDBPS {
		t.Fatalf("boundary leakage %d bits exceeds one symbol", leakage)
	}
}

func TestDerotateInverse(t *testing.T) {
	s := signal.New(SampleRate, 4096)
	for i := range s.Samples {
		s.Samples[i] = 1
	}
	s.FrequencyShift(12e3)
	derotate(s.Samples, s.Samples, 12e3)
	for i, v := range s.Samples {
		if math.Abs(real(v)-1) > 1e-6 || math.Abs(imag(v)) > 1e-6 {
			t.Fatalf("sample %d = %v after derotation", i, v)
		}
	}
	// Zero-CFO derotation is a no-op.
	before := s.Clone()
	derotate(s.Samples, s.Samples, 0)
	for i := range s.Samples {
		if s.Samples[i] != before.Samples[i] {
			t.Fatal("zero derotation modified samples")
		}
	}
}

func TestRefineCFOFromCP(t *testing.T) {
	// Build three OFDM symbols, shift by 2 kHz, and verify the CP
	// correlator reads it back, whole or net of a coarse estimate.
	tx := NewTransmitter()
	sig, err := tx.Transmit(AppendFCS(make([]byte, 60)), Rates[6])
	if err != nil {
		t.Fatal(err)
	}
	dataStart := PreambleLen + SymbolLen
	data := sig.Samples[dataStart:]
	nSym := len(data) / SymbolLen
	sh := &signal.Signal{Rate: SampleRate, Samples: data}
	sh.FrequencyShift(2e3)
	got := refineCFOFromCP(data, nSym, 0)
	if math.Abs(got-2e3) > 100 {
		t.Fatalf("CP refinement read %g Hz, want 2000", got)
	}
	// With a coarse estimate already known, the refinement reads what is
	// left of the offset, from the same raw samples.
	if got := refineCFOFromCP(data, nSym, 1500); math.Abs(got-500) > 100 {
		t.Fatalf("CP refinement after a 1500 Hz coarse estimate read %g Hz, want 500", got)
	}
	if refineCFOFromCP(nil, 0, 0) != 0 {
		t.Fatal("empty input should give 0")
	}
}
