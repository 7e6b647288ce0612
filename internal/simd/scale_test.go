package simd

import (
	"math"
	"math/rand"
	"testing"
)

// scaleRef, scalePowerRef and divScaleRef are the documented formulas
// of Scale, ScalePower and DivScale in Go's complex arithmetic: the
// loops the callers in signal and wifi keep as their definition.
func scaleRef(dst, x []complex128, g complex128) {
	for i, v := range x {
		dst[i] = v * g
	}
}

func scalePowerRef(x []complex128, g complex128) float64 {
	var p float64
	for i := range x {
		v := x[i] * g
		x[i] = v
		p += real(v)*real(v) + imag(v)*imag(v)
	}
	return p
}

func divScaleRef(dst, x []complex128, inv float64, g complex128) (ok bool) {
	ok = true
	for i, v := range x {
		re, im := real(v), imag(v)
		e := (re + im*0) * inv
		f := (im - re*0) * inv
		if math.IsNaN(e) && math.IsNaN(f) {
			ok = false
		}
		dst[i] = complex(e, f) * g
	}
	return ok
}

// scaleSpecials are the values the exactness contract is about: signed
// zeros, infinities, NaN, subnormals and the extremes of the range.
var scaleSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, -5e-324, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64, 1, -1,
}

// scaleInput draws n samples: normals, with about one part in four
// taken from scaleSpecials when specials is set.
func scaleInput(rng *rand.Rand, n int, specials bool) []complex128 {
	x := make([]complex128, n)
	pick := func() float64 {
		if specials && rng.Intn(4) == 0 {
			return scaleSpecials[rng.Intn(len(scaleSpecials))]
		}
		return rng.NormFloat64()
	}
	for i := range x {
		x[i] = complex(pick(), pick())
	}
	return x
}

// requireSameSamples compares two sample slices bit for bit, NaN as a
// class.
func requireSameSamples(t *testing.T, label string, got, want []complex128) {
	t.Helper()
	for i := range want {
		requireSameNaNClass(t, label+" re", real(got[i]), real(want[i]))
		requireSameNaNClass(t, label+" im", imag(got[i]), imag(want[i]))
	}
}

// scaleGains are real gains (the ·0 cross terms matter), complex ones
// and special ones.
var scaleGains = []complex128{
	complex(0.6366197723675814, 0), complex(-3.5, 0), complex(0.3, -0.8), complex(0, 1),
	complex(math.Copysign(0, -1), 0), complex(math.Inf(1), 0), complex(1e-310, 2), complex(math.NaN(), 0),
}

// checkScaleKernels runs the three kernels on x at offset off of a
// larger buffer (so the slices start at every 16-byte phase of a
// 32-byte line), in place and into a separate dst, against the
// references.
func checkScaleKernels(t *testing.T, x []complex128, g complex128, inv float64, off int) {
	t.Helper()
	n := len(x)
	buf := make([]complex128, n+off)
	src := buf[off:]

	want := make([]complex128, n)
	scaleRef(want, x, g)
	copy(src, x)
	Scale(src, src, g)
	requireSameSamples(t, "Scale in place", src, want)
	dst := make([]complex128, n+off)[off:]
	copy(src, x)
	Scale(dst, src, g)
	requireSameSamples(t, "Scale", dst, want)
	requireSameSamples(t, "Scale source untouched", src, x)

	copy(want, x)
	wantP := scalePowerRef(want, g)
	copy(src, x)
	requireSameNaNClass(t, "ScalePower sum", ScalePower(src, g), wantP)
	requireSameSamples(t, "ScalePower", src, want)

	wantOK := divScaleRef(want, x, inv, g)
	copy(src, x)
	if ok := DivScale(dst, src, inv, g); ok != wantOK {
		t.Fatalf("DivScale ok = %v, want %v", ok, wantOK)
	} else if ok {
		requireSameSamples(t, "DivScale", dst, want)
	}
	if ok := DivScale(src, src, inv, g); ok != wantOK {
		t.Fatalf("DivScale in place ok = %v, want %v", ok, wantOK)
	} else if ok {
		requireSameSamples(t, "DivScale in place", src, want)
	}
}

// TestScaleKernelsMatchDefinition covers every length through two
// 4-sample passes plus the pair and single tails, a long run, each
// start phase and every gain, with finite and special samples.
func TestScaleKernelsMatchDefinition(t *testing.T) {
	requireAVX2Kernels(t)
	rng := rand.New(rand.NewSource(35))
	for _, g := range scaleGains {
		for n := 0; n <= 9; n++ {
			for off := 0; off < 2; off++ {
				checkScaleKernels(t, scaleInput(rng, n, false), g, 0x1p-6, off)
				checkScaleKernels(t, scaleInput(rng, n, true), g, 0x1p-6, off)
			}
		}
		checkScaleKernels(t, scaleInput(rng, 41440, false), g, 0x1p-6, 1)
		checkScaleKernels(t, scaleInput(rng, 1027, true), g, 0.1, 0)
	}
}

// TestDivScaleNaNReport pins the flag the wifi caller relies on: one
// sample whose quotient parts are both NaN, anywhere in the quad
// passes, the pair or the single tail, must clear ok, and a sample with
// only one NaN part must not.
func TestDivScaleNaNReport(t *testing.T) {
	requireAVX2Kernels(t)
	rng := rand.New(rand.NewSource(36))
	for n := 1; n <= 11; n++ {
		for k := 0; k < n; k++ {
			for _, v := range []complex128{complex(math.Inf(1), 1), complex(math.NaN(), 0), complex(1, math.NaN()), complex(math.Inf(-1), math.Inf(1))} {
				x := scaleInput(rng, n, false)
				x[k] = v
				checkScaleKernels(t, x, complex(1.25, 0), 0x1p-6, k%2)
			}
		}
	}
}

// TestScalePowerOrder holds the sum to index order on data where a
// pairwise or lane-wise sum rounds differently: a 2⁵⁴ term, whose
// half-ulp is 2, followed by terms of 1.25, each of which the running
// sum absorbs while any two of them added first do not vanish.
func TestScalePowerOrder(t *testing.T) {
	requireAVX2Kernels(t)
	x := make([]complex128, 64)
	x[0] = complex(1<<27, 0)
	for i := 1; i < len(x); i++ {
		x[i] = complex(1, 0.5)
	}
	want := append([]complex128(nil), x...)
	requireBits(t, "sum", ScalePower(x, 1), scalePowerRef(want, 1))
}

// rotateRef is Rotate's documented formula in Go's complex arithmetic,
// the loop signal's rotor keeps as its definition.
func rotateRef(dst, x, runs []complex128, tab *[RotateRun]complex128) {
	for i, v := range x {
		r := runs[i/RotateRun] * tab[i%RotateRun]
		dst[i] = v * r
	}
}

// TestRotateMatchesDefinition covers lengths through the quad, pair and
// single passes of a run, partial and whole runs up to a 1024-sample
// block and beyond, each start phase, in place and into a separate dst,
// with finite and special samples and phasors.
func TestRotateMatchesDefinition(t *testing.T) {
	requireAVX2Kernels(t)
	rng := rand.New(rand.NewSource(40))
	for _, specials := range []bool{false, true} {
		var tab [RotateRun]complex128
		copy(tab[:], scaleInput(rng, RotateRun, specials))
		runs := scaleInput(rng, 40, specials)
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 9, 63, 64, 65, 66, 67, 127, 1023, 1024, 1025, 2500} {
			x := scaleInput(rng, n, specials)
			want := make([]complex128, n)
			rotateRef(want, x, runs, &tab)
			for off := 0; off < 2; off++ {
				dst := make([]complex128, n+off)[off:]
				Rotate(dst, x, runs, &tab)
				requireSameSamples(t, "Rotate", dst, want)
				src := append(make([]complex128, off, n+off), x...)[off:]
				Rotate(src, src, runs, &tab)
				requireSameSamples(t, "Rotate in place", src, want)
			}
		}
	}
}

// mulRef is Mul's documented formula in Go's complex arithmetic, the
// loop signal's overlap-save bin product keeps as its definition.
func mulRef(dst, x, y []complex128) {
	for i, v := range x {
		dst[i] = v * y[i]
	}
}

// checkMul holds Mul to mulRef on x and y, into a separate dst at
// start phase off and in place.
func checkMul(t *testing.T, x, y []complex128, off int) {
	t.Helper()
	want := make([]complex128, len(x))
	mulRef(want, x, y)
	dst := make([]complex128, len(x)+off)[off:]
	Mul(dst, x, y)
	requireSameSamples(t, "Mul", dst, want)
	src := append(make([]complex128, off, len(x)+off), x...)[off:]
	Mul(src, src, y)
	requireSameSamples(t, "Mul in place", src, want)
}

// TestMulMatchesDefinition covers lengths through the quad, pair and
// single passes up to the overlap-save block and beyond, each start
// phase, in place and into a separate dst, with finite and special
// samples and factors; unequal lengths panic.
func TestMulMatchesDefinition(t *testing.T) {
	requireAVX2Kernels(t)
	rng := rand.New(rand.NewSource(41))
	for _, specials := range []bool{false, true} {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 9, 511, 512, 513, 2500} {
			x, y := scaleInput(rng, n, specials), scaleInput(rng, n, specials)
			for off := 0; off < 2; off++ {
				checkMul(t, x, y, off)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Mul accepted factors shorter than dst")
		}
	}()
	Mul(make([]complex128, 4), make([]complex128, 4), make([]complex128, 3))
}

// FuzzScaleDispatch is the elementwise-kernel part of `make fuzz-simd`:
// raw bytes become float64 bits (so NaN, ±Inf, subnormals and −0 all
// appear) for the gain, the divisor's reciprocal and the samples, and
// Scale, ScalePower, DivScale and Mul (the samples' two halves as
// factors) must match their Go definitions bit for bit (NaN as a
// class) at every length and start phase, in place and into a separate
// dst.
func FuzzScaleDispatch(f *testing.F) {
	rng := rand.New(rand.NewSource(37))
	blob := make([]byte, 8*80)
	rng.Read(blob)
	f.Add(uint8(0), blob)
	special := make([]byte, 0, 8*len(scaleSpecials)*3)
	for i := 0; i < 3*len(scaleSpecials); i++ {
		special = append(special, float64Bytes(scaleSpecials[i%len(scaleSpecials)])...)
	}
	f.Add(uint8(1), special)
	f.Fuzz(func(t *testing.T, off uint8, raw []byte) {
		if !Enabled() {
			t.Skip("AVX2 kernels not dispatched on this build")
		}
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			var bits uint64
			for b := 0; b < 8; b++ {
				bits |= uint64(raw[8*i+b]) << (8 * b)
			}
			vals[i] = math.Float64frombits(bits)
		}
		if len(vals) < 3 {
			t.Skip("not enough bytes for the gain and divisor")
		}
		g, inv, rest := complex(vals[0], vals[1]), vals[2], vals[3:]
		x := make([]complex128, len(rest)/2)
		for i := range x {
			x[i] = complex(rest[2*i], rest[2*i+1])
		}
		checkScaleKernels(t, x, g, inv, int(off%2))
		checkScaleKernels(t, x, complex(real(g), 0), 0x1p-6, int(off%2))
		h := len(x) / 2
		checkMul(t, x[:h], x[h:2*h], int(off%2))
	})
}

func float64Bytes(v float64) []byte {
	b := make([]byte, 8)
	bits := math.Float64bits(v)
	for i := range b {
		b[i] = byte(bits >> (8 * i))
	}
	return b
}
