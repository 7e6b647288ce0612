package signal

import (
	"math"
	"math/rand"
	"testing"
)

// l1Mass returns Σ|x[i]|·Σ|h[j]|, the scale the float32 tolerance
// bounds are relative to.
func l1Mass(x []complex128, h []float64) float64 {
	var sx, sh float64
	for _, v := range x {
		sx += math.Hypot(real(v), imag(v))
	}
	for _, v := range h {
		sh += math.Abs(v)
	}
	return sx * sh
}

func randSignal(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func randTaps(rng *rand.Rand, n int) []float64 {
	h := make([]float64, n)
	for i := range h {
		h[i] = rng.NormFloat64()
	}
	return h
}

// --- float32 kernel tolerance tests -----------------------------------

// relErr32 is the acceptance bound for the float32 kernels: a handful of
// float32 ULPs per operation, documented in DESIGN.md §8.1.
const relErr32 = 2e-5

func TestDerotatePFloat64IsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randSignal(rng, 4096)
	b := append([]complex128(nil), a...)
	Derotate(a, 1234.5, 20e6)
	DerotateP(b, 1234.5, 20e6, PrecisionFloat64)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d: float64 path diverged: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestDerotatePFloat32Tolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randSignal(rng, 4096)
	b := append([]complex128(nil), a...)
	Derotate(a, 1234.5, 20e6)
	DerotateP(b, 1234.5, 20e6, PrecisionFloat32)
	for i := range a {
		scale := math.Hypot(real(a[i]), imag(a[i])) + 1
		if d := math.Hypot(real(a[i]-b[i]), imag(a[i]-b[i])); d > relErr32*scale {
			t.Fatalf("sample %d: float32 derotate error %g exceeds %g", i, d, relErr32*scale)
		}
	}
}

func TestConvolvePFloat32Tolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := randSignal(rng, 512)
	h := randTaps(rng, 101)
	want := Convolve(x, h)
	if got := ConvolveP(x, h, PrecisionFloat64); len(got) != len(want) {
		t.Fatal("float64 path length mismatch")
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("float64 path not bit-identical at %d", i)
			}
		}
	}
	got := ConvolveP(x, h, PrecisionFloat32)
	bound := 4e-4 * l1Mass(x, h) / float64(len(h)) // float32 MAC over 101 taps
	for i := range want {
		if d := math.Hypot(real(got[i]-want[i]), imag(got[i]-want[i])); d > bound {
			t.Fatalf("sample %d: float32 convolve error %g exceeds %g", i, d, bound)
		}
	}
}

func TestAddAWGNPDrawsIdenticalStream(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	s64 := &Signal{Rate: 1e6, Samples: randSignal(rng, 1000)}
	s32 := s64.Clone()
	// Same seed: both paths must consume the identical NormFloat64 stream.
	s64.AddAWGNP(0.01, rand.New(rand.NewSource(33)), PrecisionFloat64)
	s32.AddAWGNP(0.01, rand.New(rand.NewSource(33)), PrecisionFloat32)
	for i := range s64.Samples {
		d := math.Hypot(real(s64.Samples[i]-s32.Samples[i]), imag(s64.Samples[i]-s32.Samples[i]))
		scale := math.Hypot(real(s64.Samples[i]), imag(s64.Samples[i])) + 1
		if d > relErr32*scale {
			t.Fatalf("sample %d: float32 noise mix error %g exceeds %g", i, d, relErr32*scale)
		}
	}
}

func TestSquareWaveMixPSignAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s64 := &Signal{Rate: 20e6, Samples: randSignal(rng, 8192)}
	s32 := s64.Clone()
	orig := s64.Clone()
	s64.SquareWaveMixP(1e6, 0.3, PrecisionFloat64)
	s32.SquareWaveMixP(1e6, 0.3, PrecisionFloat32)
	// The float32 path may disagree on samples that land within float32
	// rounding of a toggle instant; everywhere else the sign must match.
	disagree := 0
	for i := range s64.Samples {
		want := s64.Samples[i]
		got := s32.Samples[i]
		// Compare against ± the original sample to classify the decision.
		dPlus := math.Hypot(real(got-orig.Samples[i]), imag(got-orig.Samples[i]))
		dMinus := math.Hypot(real(got+orig.Samples[i]), imag(got+orig.Samples[i]))
		gotFlip := dMinus < dPlus
		wantFlip := want != orig.Samples[i]
		if gotFlip != wantFlip {
			disagree++
		}
	}
	if disagree > len(s64.Samples)/1000 {
		t.Fatalf("float32 square-wave mix flipped %d/%d samples differently", disagree, len(s64.Samples))
	}
}

func TestFrequencyShiftPFloat64IsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := &Signal{Rate: 20e6, Samples: randSignal(rng, 4096)}
	b := a.Clone()
	a.FrequencyShift(50e3)
	b.FrequencyShiftP(50e3, PrecisionFloat64)
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d: float64 shift diverged", i)
		}
	}
}

func TestPrecisionString(t *testing.T) {
	if PrecisionFloat64.String() != "float64" || PrecisionFloat32.String() != "float32" {
		t.Fatal("Precision.String mismatch")
	}
}

func TestArenaComplexUninit(t *testing.T) {
	a := GetArena()
	b := a.ComplexUninit(64)
	if len(b) != 64 {
		t.Fatalf("len %d", len(b))
	}
	for i := range b {
		b[i] = complex(1, 1)
	}
	a.Release()
	a2 := GetArena()
	defer a2.Release()
	z := a2.Complex(64)
	for i, v := range z {
		if v != 0 {
			t.Fatalf("Complex(%d) not zeroed at %d after uninit use: %v", 64, i, v)
		}
	}
}
