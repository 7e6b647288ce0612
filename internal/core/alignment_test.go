package core

import (
	"math"
	"testing"

	"repro/internal/bits"
	"repro/internal/decoder"
	"repro/internal/faults"
	"repro/internal/signal"
	"repro/internal/tag"
	"repro/internal/wifi"
)

// TestMisalignedFlipsDestroyDecoding is the §2.2.2/§3.2.1 alignment
// requirement: the interleaver never crosses an OFDM symbol boundary, so a
// tag bit that spans *whole* symbols flips clean blocks. If the tag's
// modulation grid is offset by half a symbol, every flip straddles two
// symbols' FFT windows, the mid-symbol phase discontinuity smears across
// all subcarriers, and tag decoding collapses — the reason the envelope
// detector's 0.35 µs latency matters only because it stays inside the
// 0.8 µs cyclic prefix.
func TestMisalignedFlipsDestroyDecoding(t *testing.T) {
	run := func(extraOffset float64) float64 {
		cfg := DefaultConfig(WiFi, 5)
		cfg.Link.FadingK = 0
		s, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rate := wifi.Rates[cfg.WiFiRateMbps]
		psdu, seed := s.phy.draw(s.rng, true)
		tx := wifi.Transmitter{ScramblerSeed: seed, FixedSeed: true}
		exc, err := tx.Transmit(psdu, rate)
		if err != nil {
			t.Fatal(err)
		}
		nSym := wifi.NumDataSymbols(len(psdu), rate)
		ref := make([]byte, nSym*rate.NDBPS)
		copy(ref[wifi.ServiceBits:], bits.FromBytes(psdu))

		tr := &tag.PhaseTranslator{
			DataStart:     float64(wifi.PreambleLen)/wifi.SampleRate + 2*wifi.SymbolTime + extraOffset,
			SymbolPeriod:  wifi.SymbolTime,
			SymbolsPerBit: cfg.Redundancy,
			DeltaTheta:    math.Pi,
			BitsPerStep:   1,
			Latency:       tag.EnvelopeLatency,
		}
		tagBits := make([]byte, 100)
		for i := range tagBits {
			tagBits[i] = byte(i) & 1
		}
		mod, used, err := tr.Translate(exc, tagBits)
		if err != nil {
			t.Fatal(err)
		}
		sh := tag.ChannelShifter{OffsetHz: 20e6, Mode: tag.ShiftEquivalentBaseband}
		if _, err := sh.Shift(mod); err != nil {
			t.Fatal(err)
		}
		cap := signal.New(0, 0)
		if err := s.link(s.rng, faults.Packet{}).ApplyToWithPower(cap, mod, captureHeadroom, false, 0); err != nil {
			t.Fatal(err)
		}
		pkt, err := wifi.NewReceiver().Receive(cap)
		if err != nil {
			t.Fatalf("offset %g: %v", extraOffset, err)
		}
		ws, _, err := decoder.DecodeWindows(ref[rate.NDBPS:], pkt.RawBits[rate.NDBPS:],
			cfg.Redundancy*rate.NDBPS, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if len(ws) > used {
			ws = ws[:used]
		}
		e, n, _ := decoder.BER(tagBits[:used], decoder.Bits(ws))
		return float64(e) / float64(n)
	}

	aligned := run(0)
	misaligned := run(2e-6) // half an OFDM symbol

	if aligned > 0.01 {
		t.Fatalf("aligned BER %.3f, want ~0", aligned)
	}
	if misaligned < 0.10 {
		t.Fatalf("half-symbol misalignment BER %.3f; expected severe degradation", misaligned)
	}
}
