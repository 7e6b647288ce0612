package tag

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"repro/internal/signal"
)

func constSignal(rate float64, n int) *signal.Signal {
	s := signal.New(rate, n)
	for i := range s.Samples {
		s.Samples[i] = 1
	}
	return s
}

func TestPhaseTranslatorBinary(t *testing.T) {
	// 1 MS/s, symbol 10 us, 2 symbols per bit, data starts at 100 us.
	p := &PhaseTranslator{
		DataStart:     100e-6,
		SymbolPeriod:  10e-6,
		SymbolsPerBit: 2,
		DeltaTheta:    math.Pi,
		BitsPerStep:   1,
	}
	exc := constSignal(1e6, 200)
	out, used, err := p.Translate(exc, []byte{1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if used != 3 {
		t.Fatalf("used %d bits, want 3", used)
	}
	// Samples 0..99 untouched; 100..119 rotated pi; 120..139 untouched;
	// 140..159 rotated.
	check := func(lo, hi int, want complex128) {
		for i := lo; i < hi; i++ {
			if cmplx.Abs(out.Samples[i]-want) > 1e-12 {
				t.Fatalf("sample %d = %v, want %v", i, out.Samples[i], want)
			}
		}
	}
	check(0, 100, 1)
	check(100, 120, -1)
	check(120, 140, 1)
	check(140, 160, -1)
	check(160, 200, 1)
	// Excitation signal untouched (Translate works on a copy).
	if exc.Samples[105] != 1 {
		t.Fatal("Translate modified the excitation in place")
	}
}

func TestPhaseTranslatorQuaternary(t *testing.T) {
	p := &PhaseTranslator{
		SymbolPeriod:  10e-6,
		SymbolsPerBit: 1,
		DeltaTheta:    math.Pi / 2,
		BitsPerStep:   2,
	}
	out, used, err := p.Translate(constSignal(1e6, 40), []byte{0, 1, 1, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if used != 6 {
		t.Fatalf("used %d, want 6", used)
	}
	// Block 0: bits 01 -> rotation pi/2 -> j.
	if cmplx.Abs(out.Samples[5]-complex(0, 1)) > 1e-12 {
		t.Fatalf("block 0 sample %v, want j", out.Samples[5])
	}
	// Block 1: bits 10 -> rotation pi -> -1.
	if cmplx.Abs(out.Samples[15]-complex(-1, 0)) > 1e-12 {
		t.Fatalf("block 1 sample %v, want -1", out.Samples[15])
	}
	// Block 2: bits 11 -> rotation 3pi/2 -> -j.
	if cmplx.Abs(out.Samples[25]-complex(0, -1)) > 1e-12 {
		t.Fatalf("block 2 sample %v, want -j", out.Samples[25])
	}
}

func TestPhaseTranslatorPartialPacket(t *testing.T) {
	p := &PhaseTranslator{
		SymbolPeriod:  10e-6,
		SymbolsPerBit: 1,
		DeltaTheta:    math.Pi,
		BitsPerStep:   1,
	}
	// Only 2 full blocks fit in 25 samples.
	_, used, err := p.Translate(constSignal(1e6, 25), []byte{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if used != 2 {
		t.Fatalf("used %d, want 2", used)
	}
}

func TestPhaseTranslatorCapacity(t *testing.T) {
	p := &PhaseTranslator{
		DataStart:     20e-6,
		SymbolPeriod:  4e-6,
		SymbolsPerBit: 4,
		DeltaTheta:    math.Pi,
		BitsPerStep:   1,
		Latency:       EnvelopeLatency,
	}
	// 160 us packet: (160-20-0.35)/16 = 8.72 -> 8 bits.
	if c := p.Capacity(160e-6); c != 8 {
		t.Fatalf("capacity %d, want 8", c)
	}
	if c := p.Capacity(10e-6); c != 0 {
		t.Fatalf("capacity of short packet %d, want 0", c)
	}
	// Quaternary doubles capacity.
	p.BitsPerStep = 2
	p.DeltaTheta = math.Pi / 2
	if c := p.Capacity(160e-6); c != 16 {
		t.Fatalf("quaternary capacity %d, want 16", c)
	}
}

func TestPhaseTranslatorValidation(t *testing.T) {
	bad := &PhaseTranslator{SymbolPeriod: 0, SymbolsPerBit: 1, BitsPerStep: 1}
	if _, _, err := bad.Translate(constSignal(1e6, 10), []byte{1}); err == nil {
		t.Error("zero symbol period accepted")
	}
	bad = &PhaseTranslator{SymbolPeriod: 1e-6, SymbolsPerBit: 1, BitsPerStep: 3}
	if _, _, err := bad.Translate(constSignal(1e6, 10), []byte{1}); err == nil {
		t.Error("BitsPerStep 3 accepted")
	}
	if bad.Capacity(1) != 0 {
		t.Error("invalid translator reported nonzero capacity")
	}
}

func TestPhaseTranslatorPowerPreserved(t *testing.T) {
	f := func(seedBits []byte) bool {
		p := &PhaseTranslator{
			SymbolPeriod:  5e-6,
			SymbolsPerBit: 1,
			DeltaTheta:    math.Pi,
			BitsPerStep:   1,
		}
		exc := constSignal(1e6, 100)
		out, _, err := p.Translate(exc, seedBits)
		if err != nil {
			return false
		}
		return math.Abs(out.MeanPower()-exc.MeanPower()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFreqTranslatorTogglesOnlyOnes(t *testing.T) {
	f := &FreqTranslator{
		BitPeriod:     1e-6,
		BitsPerTagBit: 4,
		ToggleHz:      500e3,
	}
	exc := constSignal(8e6, 96) // 3 tag bits of 32 samples
	out, used, err := f.Translate(exc, []byte{0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if used != 3 {
		t.Fatalf("used %d, want 3", used)
	}
	// Bit 0 window unmodified.
	for i := 0; i < 32; i++ {
		if out.Samples[i] != 1 {
			t.Fatalf("tag-0 window modified at %d", i)
		}
	}
	// Bit 1 window contains sign flips.
	flips := 0
	for i := 32; i < 64; i++ {
		if real(out.Samples[i]) < 0 {
			flips++
		}
	}
	if flips == 0 || flips == 32 {
		t.Fatalf("tag-1 window has %d negative samples; want a toggling pattern", flips)
	}
	// Bit 2 window unmodified.
	for i := 64; i < 96; i++ {
		if out.Samples[i] != 1 {
			t.Fatalf("tag-0 window modified at %d", i)
		}
	}
	// Translate works on a copy; TranslateInPlace writes the same
	// samples into the excitation itself.
	for i, v := range exc.Samples {
		if v != 1 {
			t.Fatalf("Translate modified the excitation at %d", i)
		}
	}
	if used, err := f.TranslateInPlace(exc, []byte{0, 1, 0}); err != nil || used != 3 {
		t.Fatalf("TranslateInPlace: used %d, err %v", used, err)
	}
	for i, v := range out.Samples {
		if exc.Samples[i] != v {
			t.Fatalf("TranslateInPlace sample %d = %v, Translate gave %v", i, exc.Samples[i], v)
		}
	}
}

func TestFreqTranslatorCapacityAndValidation(t *testing.T) {
	f := &FreqTranslator{DataStart: 40e-6, BitPeriod: 1e-6, BitsPerTagBit: 8, ToggleHz: 500e3}
	// 200us packet: (200-40)/8 = 20 bits.
	if c := f.Capacity(200e-6); c != 20 {
		t.Fatalf("capacity %d, want 20", c)
	}
	bad := &FreqTranslator{BitPeriod: 0, BitsPerTagBit: 1, ToggleHz: 1}
	if _, _, err := bad.Translate(constSignal(1e6, 10), []byte{1}); err == nil {
		t.Error("zero bit period accepted")
	}
	if bad.Capacity(1) != 0 {
		t.Error("invalid translator reported nonzero capacity")
	}
}

func TestChannelShifterEquivalentBaseband(t *testing.T) {
	s := constSignal(20e6, 1000)
	sh := ChannelShifter{OffsetHz: 20e6, Mode: ShiftEquivalentBaseband}
	got, err := sh.Shift(s)
	if err != nil {
		t.Fatal(err)
	}
	wantP := signal.SSBShiftGain * signal.SSBShiftGain
	if p := s.MeanPower(); math.Abs(p-wantP) > 1e-9 {
		t.Fatalf("power %g, want %g (2/pi)^2", p, wantP)
	}
	if math.Float64bits(got) != math.Float64bits(s.MeanPower()) {
		t.Fatalf("Shift returned power %v, MeanPower of its output %v", got, s.MeanPower())
	}
	// Offset below Nyquist must be rejected in this mode.
	bad := ChannelShifter{OffsetHz: 5e6, Mode: ShiftEquivalentBaseband}
	if _, err := bad.Shift(constSignal(20e6, 10)); err == nil {
		t.Error("sub-Nyquist equivalent-baseband shift accepted")
	}
}

func TestChannelShifterSquareWaveMatchesEquivalentGain(t *testing.T) {
	// Wideband check: simulate at 80 MS/s, shift a DC tone by 20 MHz with
	// the true square wave, and verify the fundamental image carries the
	// same power the equivalent-baseband model assumes.
	const rate = 80e6
	const n = 8192
	s := signal.New(rate, n)
	for i := range s.Samples {
		s.Samples[i] = 1
	}
	sh := ChannelShifter{OffsetHz: 5e6, Mode: ShiftSquareWave}
	got, err := sh.Shift(s)
	if err != nil {
		t.Fatal(err)
	}
	if got != s.MeanPower() {
		t.Fatalf("Shift returned power %v, MeanPower of its output %v", got, s.MeanPower())
	}
	spec, err := s.Spectrum(n)
	if err != nil {
		t.Fatal(err)
	}
	bin := int(math.Round(5e6 / rate * n))
	wantP := signal.SSBShiftGain * signal.SSBShiftGain
	if math.Abs(spec[bin]-wantP) > 0.12*wantP {
		t.Fatalf("square-wave image power %g, equivalent model assumes %g", spec[bin], wantP)
	}
}

func TestEnvelopeDetectorFindsPulses(t *testing.T) {
	const rate = 20e6
	s := signal.New(rate, 20000)
	amp := signal.AmplitudeForPowerDBm(-40) // well above -60 reference
	// Pulse 1: samples 2000..6000 (200 us). Pulse 2: 10000..11000 (50 us).
	for i := 2000; i < 6000; i++ {
		s.Samples[i] = complex(amp, 0)
	}
	for i := 10000; i < 11000; i++ {
		s.Samples[i] = complex(amp, 0)
	}
	pulses := DetectEnvelope(s)
	if len(pulses) != 2 {
		t.Fatalf("found %d pulses, want 2", len(pulses))
	}
	if math.Abs(pulses[0].Duration-200e-6) > 10e-6 {
		t.Fatalf("pulse 0 duration %g, want 200us", pulses[0].Duration)
	}
	if math.Abs(pulses[1].Duration-50e-6) > 10e-6 {
		t.Fatalf("pulse 1 duration %g, want 50us", pulses[1].Duration)
	}
}

func TestEnvelopeDetectorIgnoresWeakSignal(t *testing.T) {
	s := signal.New(20e6, 10000)
	amp := signal.AmplitudeForPowerDBm(-80) // below -60 reference
	for i := 1000; i < 9000; i++ {
		s.Samples[i] = complex(amp, 0)
	}
	if pulses := DetectEnvelope(s); len(pulses) != 0 {
		t.Fatalf("detected %d pulses below threshold", len(pulses))
	}
}

func TestEnvelopeDetectorOpenEndedPulse(t *testing.T) {
	s := signal.New(20e6, 5000)
	amp := signal.AmplitudeForPowerDBm(-30)
	for i := 1000; i < 5000; i++ {
		s.Samples[i] = complex(amp, 0)
	}
	pulses := DetectEnvelope(s)
	if len(pulses) != 1 {
		t.Fatalf("found %d pulses, want 1 (truncated)", len(pulses))
	}
}
