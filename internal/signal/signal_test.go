package signal

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewAndDuration(t *testing.T) {
	s := New(20e6, 2000)
	if len(s.Samples) != 2000 {
		t.Fatalf("len = %d", len(s.Samples))
	}
	if !approx(s.Duration(), 100e-6, 1e-12) {
		t.Fatalf("duration = %g, want 100us", s.Duration())
	}
	var empty Signal
	if empty.Duration() != 0 {
		t.Fatal("zero-rate duration should be 0")
	}
}

func TestScaleAndMeanPower(t *testing.T) {
	s := New(1e6, 100)
	for i := range s.Samples {
		s.Samples[i] = 1
	}
	if !approx(s.MeanPower(), 1, 1e-12) {
		t.Fatalf("mean power = %g", s.MeanPower())
	}
	s.Scale(complex(0.5, 0))
	if !approx(s.MeanPower(), 0.25, 1e-12) {
		t.Fatalf("scaled power = %g, want 0.25", s.MeanPower())
	}
}

func TestAddOffsetsAndRateMismatch(t *testing.T) {
	a := New(1e6, 10)
	b := New(1e6, 3)
	for i := range b.Samples {
		b.Samples[i] = 1
	}
	if err := a.Add(b, 4); err != nil {
		t.Fatal(err)
	}
	for i, v := range a.Samples {
		want := complex128(0)
		if i >= 4 && i < 7 {
			want = 1
		}
		if v != want {
			t.Fatalf("sample %d = %v, want %v", i, v, want)
		}
	}
	// Out-of-range contributions silently dropped.
	if err := a.Add(b, -2); err != nil {
		t.Fatal(err)
	}
	if a.Samples[0] != 1 { // b[2] lands at index 0
		t.Fatalf("negative-offset add wrong: %v", a.Samples[0])
	}
	c := New(2e6, 3)
	if err := a.Add(c, 0); err == nil {
		t.Error("rate mismatch not detected")
	}
}

func TestFrequencyShiftMovesTone(t *testing.T) {
	const rate = 1e6
	const n = 4096
	s := New(rate, n) // DC tone
	for i := range s.Samples {
		s.Samples[i] = 1
	}
	s.FrequencyShift(100e3)
	spec, err := s.Spectrum(n)
	if err != nil {
		t.Fatal(err)
	}
	// Peak bin should be at 100 kHz = bin 4096*0.1 = 409.6 -> 410.
	best, bestP := 0, 0.0
	for i, p := range spec {
		if p > bestP {
			best, bestP = i, p
		}
	}
	wantBin := int(math.Round(100e3 / rate * n))
	if best != wantBin {
		t.Fatalf("tone at bin %d, want %d", best, wantBin)
	}
	// Power conserved by mixing.
	if !approx(s.MeanPower(), 1, 1e-9) {
		t.Fatalf("power after shift = %g", s.MeanPower())
	}
}

func TestFrequencyShiftZeroIsNoop(t *testing.T) {
	s := New(1e6, 16)
	s.Samples[3] = complex(1, 2)
	before := s.Clone()
	s.FrequencyShift(0)
	for i := range s.Samples {
		if s.Samples[i] != before.Samples[i] {
			t.Fatal("zero shift modified samples")
		}
	}
}

func TestPhaseShift(t *testing.T) {
	s := New(1e6, 4)
	for i := range s.Samples {
		s.Samples[i] = 1
	}
	s.PhaseShift(math.Pi)
	for _, v := range s.Samples {
		if !approx(real(v), -1, 1e-12) || !approx(imag(v), 0, 1e-12) {
			t.Fatalf("180 deg shift gave %v", v)
		}
	}
}

func TestDelaySamples(t *testing.T) {
	s := New(1e6, 2)
	s.Samples[0] = 5
	s.DelaySamples(3)
	if len(s.Samples) != 5 || s.Samples[3] != 5 {
		t.Fatalf("delay wrong: %v", s.Samples)
	}
	n := len(s.Samples)
	s.DelaySamples(0)
	if len(s.Samples) != n {
		t.Fatal("zero delay changed length")
	}
}

func TestFFTRoundTripProperty(t *testing.T) {
	f := func(re, im [16]float64) bool {
		x := make([]complex128, 16)
		for i := range x {
			// Bound magnitudes to keep the tolerance meaningful.
			x[i] = complex(math.Mod(re[i], 100), math.Mod(im[i], 100))
		}
		orig := append([]complex128(nil), x...)
		if err := FFT(x); err != nil {
			return false
		}
		if err := IFFT(x); err != nil {
			return false
		}
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFFTKnownValues(t *testing.T) {
	// FFT of an impulse is all ones.
	x := make([]complex128, 8)
	x[0] = 1
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
	// FFT of a constant is an impulse at DC of height N.
	y := []complex128{1, 1, 1, 1}
	if err := FFT(y); err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(y[0]-4) > 1e-12 {
		t.Fatalf("DC bin = %v, want 4", y[0])
	}
	for i := 1; i < 4; i++ {
		if cmplx.Abs(y[i]) > 1e-12 {
			t.Fatalf("bin %d = %v, want 0", i, y[i])
		}
	}
}

func TestFFTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 256
	x := make([]complex128, n)
	var timePower float64
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		timePower += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
	}
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	var freqPower float64
	for _, v := range x {
		freqPower += real(v)*real(v) + imag(v)*imag(v)
	}
	if !approx(freqPower/float64(n), timePower, 1e-6*timePower) {
		t.Fatalf("Parseval violated: %g vs %g", freqPower/float64(n), timePower)
	}
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	if err := FFT(make([]complex128, 12)); err == nil {
		t.Error("FFT accepted length 12")
	}
	if err := IFFT(make([]complex128, 3)); err == nil {
		t.Error("IFFT accepted length 3")
	}
	if err := FFT(nil); err != nil {
		t.Errorf("FFT(nil) = %v, want nil", err)
	}
}

func TestLowpassFIRPassesAndStops(t *testing.T) {
	const rate = 1e6
	h, err := LowpassFIR(rate, 100e3, 101)
	if err != nil {
		t.Fatal(err)
	}
	// In-band tone at 20 kHz: should pass nearly unattenuated.
	pass := New(rate, 4096)
	for i := range pass.Samples {
		pass.Samples[i] = 1
	}
	pass.FrequencyShift(20e3)
	pass.Samples = Convolve(pass.Samples, h)
	if p := pass.MeanPower(); p < 0.9 {
		t.Fatalf("in-band tone power %g after filter, want >0.9", p)
	}
	// Out-of-band tone at 400 kHz: should be strongly attenuated.
	stop := New(rate, 4096)
	for i := range stop.Samples {
		stop.Samples[i] = 1
	}
	stop.FrequencyShift(400e3)
	stop.Samples = Convolve(stop.Samples, h)
	if p := stop.MeanPower(); p > 1e-3 {
		t.Fatalf("out-of-band tone power %g after filter, want <1e-3", p)
	}
}

func TestLowpassFIRValidation(t *testing.T) {
	if _, err := LowpassFIR(1e6, 600e3, 11); err == nil {
		t.Error("cutoff above Nyquist accepted")
	}
	if _, err := LowpassFIR(1e6, 100e3, 1); err == nil {
		t.Error("single tap accepted")
	}
}

func TestGaussianFIRProperties(t *testing.T) {
	h := GaussianFIR(0.5, 8, 3)
	var sum float64
	for _, v := range h {
		if v < 0 {
			t.Fatal("Gaussian taps must be nonnegative")
		}
		sum += v
	}
	if !approx(sum, 1, 1e-9) {
		t.Fatalf("tap sum = %g, want 1", sum)
	}
	// Symmetric with the peak in the middle.
	n := len(h)
	for i := 0; i < n/2; i++ {
		if !approx(h[i], h[n-1-i], 1e-12) {
			t.Fatal("taps not symmetric")
		}
	}
	if h[n/2] < h[0] {
		t.Fatal("peak not centred")
	}
}

func TestConvolveIdentity(t *testing.T) {
	x := []complex128{1, 2, 3, 4}
	y := Convolve(x, []float64{1})
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("identity convolution changed data: %v", y)
		}
	}
	if Convolve(nil, []float64{1}) != nil {
		t.Error("nil input should give nil")
	}
}

func TestAddAWGNPowerAndDeterminism(t *testing.T) {
	s := New(1e6, 100000)
	s.AddAWGN(0.25, rand.New(rand.NewSource(42)))
	if p := s.MeanPower(); !approx(p, 0.25, 0.01) {
		t.Fatalf("noise power = %g, want 0.25", p)
	}
	a := New(1e6, 16)
	b := New(1e6, 16)
	a.AddAWGN(1, rand.New(rand.NewSource(1)))
	b.AddAWGN(1, rand.New(rand.NewSource(1)))
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatal("same seed produced different noise")
		}
	}
	c := New(1e6, 4)
	c.AddAWGN(0, rand.New(rand.NewSource(1)))
	for _, v := range c.Samples {
		if v != 0 {
			t.Fatal("zero-power AWGN modified signal")
		}
	}
}

func TestNoiseFloorDBm(t *testing.T) {
	// 20 MHz, NF 6 dB: -174 + 73.0 + 6 = -94.99 dBm.
	got := NoiseFloorDBm(20e6, 6)
	if !approx(got, -94.99, 0.05) {
		t.Fatalf("noise floor = %g dBm, want about -95", got)
	}
}

func TestPowerConversions(t *testing.T) {
	if !approx(PowerDB(100), 20, 1e-12) {
		t.Fatal("PowerDB(100) != 20")
	}
	if !approx(DBToPower(30), 1000, 1e-9) {
		t.Fatal("DBToPower(30) != 1000")
	}
	if !approx(AmplitudeForPowerDBm(20), 10, 1e-9) {
		t.Fatal("AmplitudeForPowerDBm(20) != 10")
	}
	f := func(db float64) bool {
		db = math.Mod(db, 80)
		return approx(PowerDB(DBToPower(db)), db, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSquareWaveMixImages(t *testing.T) {
	const rate = 80e6
	const n = 8192
	s := New(rate, n)
	for i := range s.Samples {
		s.Samples[i] = 1 // DC tone
	}
	// 5 MHz toggle = 16 samples/period at 80 MS/s, with a half-sample phase
	// offset so no sample lands exactly on a zero crossing.
	s.SquareWaveMix(5e6, math.Pi/16)
	spec, err := s.Spectrum(n)
	if err != nil {
		t.Fatal(err)
	}
	binFor := func(f float64) int {
		b := int(math.Round(f / rate * n))
		return (b%n + n) % n
	}
	// Fundamental images at ±5 MHz with power (2/π)^2 each.
	wantP := SSBShiftGain * SSBShiftGain
	for _, f := range []float64{5e6, -5e6} {
		p := spec[binFor(f)]
		if !approx(p, wantP, 0.05*wantP) {
			t.Errorf("image at %g MHz power %g, want %g", f/1e6, p, wantP)
		}
	}
	// No energy left at DC, none at even harmonics.
	if spec[0] > 1e-6 {
		t.Errorf("DC leakage %g", spec[0])
	}
}
