package signal

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/simd"
)

// Convolve is ConvolveInto into a fresh slice, nil for empty input: the
// allocating form the tests compare against.
func Convolve(x []complex128, h []float64) []complex128 {
	if len(x) == 0 || len(h) == 0 {
		return nil
	}
	return ConvolveInto(make([]complex128, len(x)), x, h)
}

// convolveScatter is the textbook scatter form ConvolveInto replaced,
// kept as the reference its gather order must reproduce: every input
// sample adds its h-weighted copy into the full-length product, and the
// "same" window is cut out at the group delay.
func convolveScatter(x []complex128, h []float64) []complex128 {
	if len(x) == 0 || len(h) == 0 {
		return nil
	}
	full := make([]complex128, len(x)+len(h)-1)
	for i, xv := range x {
		row := full[i : i+len(h) : i+len(h)]
		for j, hv := range h {
			row[j] += xv * complex(hv, 0)
		}
	}
	delay := (len(h) - 1) / 2
	return append([]complex128(nil), full[delay:delay+len(x)]...)
}

// eachDispatchMode runs fn with the pure-Go loops and, when the build
// and CPU carry them, again with the AVX2 kernels dispatched,
// restoring the ambient state afterwards.
func eachDispatchMode(t testing.TB, fn func(mode string)) {
	t.Helper()
	prev := simd.Enabled()
	defer simd.SetEnabled(prev)
	simd.SetEnabled(false)
	fn("go")
	if simd.SetEnabled(true); simd.Enabled() {
		fn(simd.Mode())
	}
}

// sameFloat is the kernels' exactness contract on one float: identical
// bits, except that two NaNs match whatever their payloads (see the
// simd package comment).
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func requireSameSamples(t testing.TB, label string, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !sameFloat(real(got[i]), real(want[i])) || !sameFloat(imag(got[i]), imag(want[i])) {
			t.Fatalf("%s: sample %d = %v (%016x %016x), want %v (%016x %016x)", label, i,
				got[i], math.Float64bits(real(got[i])), math.Float64bits(imag(got[i])),
				want[i], math.Float64bits(real(want[i])), math.Float64bits(imag(want[i])))
		}
	}
}

// checkConvolve compares Convolve and ConvolveInto (into a dirty,
// reused buffer) against the scatter reference in every dispatch mode.
func checkConvolve(t testing.TB, x []complex128, h []float64) {
	t.Helper()
	want := convolveScatter(x, h)
	eachDispatchMode(t, func(mode string) {
		requireSameSamples(t, mode+" Convolve", Convolve(x, h), want)
		dirty := make([]complex128, len(x)+3)
		for i := range dirty {
			dirty[i] = complex(math.NaN(), 7)
		}
		requireSameSamples(t, mode+" ConvolveInto", ConvolveInto(dirty, x, h), want)
	})
}

func TestConvolveEmptyInputs(t *testing.T) {
	if out := Convolve(nil, []float64{1}); out != nil {
		t.Fatalf("empty signal: got %v, want nil", out)
	}
	if out := Convolve([]complex128{1}, nil); out != nil {
		t.Fatalf("empty taps: got %v, want nil", out)
	}
	if out := ConvolveInto(make([]complex128, 4), nil, []float64{1}); len(out) != 0 {
		t.Fatalf("Into with empty signal: got %v, want empty", out)
	}
	if out := ConvolveInto(make([]complex128, 4), []complex128{1}, nil); len(out) != 0 {
		t.Fatalf("Into with empty taps: got %v, want empty", out)
	}
}

func TestConvolveSingleSample(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, taps := range []int{1, 2, 3, 101} {
		checkConvolve(t, randSignal(rng, 1), randTaps(rng, taps))
	}
}

func TestConvolveTapsLongerThanSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct{ n, taps int }{{1, 5}, {4, 101}, {50, 101}, {100, 129}, {135, 129}, {136, 129}} {
		checkConvolve(t, randSignal(rng, tc.n), randTaps(rng, tc.taps))
	}
}

// TestConvolveMatchesScatterReference sweeps signal lengths and tap
// counts across the kernel's 8-output blocking (interior widths of
// 0..3 blocks plus every remainder) and the receive-path shapes.
func TestConvolveMatchesScatterReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for taps := 1; taps <= 12; taps++ {
		for n := 1; n <= 3*taps+26; n++ {
			checkConvolve(t, randSignal(rng, n), randTaps(rng, taps))
		}
	}
	for _, tc := range []struct{ n, taps int }{{4096, 101}, {17696, 129}, {17696, 25}, {1000, 200}} {
		checkConvolve(t, randSignal(rng, tc.n), randTaps(rng, tc.taps))
	}
}

// TestConvolveDispatchBitIdentity feeds the non-finite and signed-zero
// cases the ·0 cross terms exist for: an Inf sample must poison exactly
// the outputs it reaches, and −0 products must round to the same
// signed zero, in both dispatch modes.
func TestConvolveDispatchBitIdentity(t *testing.T) {
	negZero := math.Copysign(0, -1)
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), negZero, 0, 5e-324, -5e-324, math.MaxFloat64}
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		taps := 1 + rng.Intn(40)
		n := 1 + rng.Intn(3*taps+20)
		x := randSignal(rng, n)
		h := randTaps(rng, taps)
		for k := rng.Intn(4); k > 0; k-- {
			x[rng.Intn(n)] = complex(specials[rng.Intn(len(specials))], specials[rng.Intn(len(specials))])
		}
		if rng.Intn(3) == 0 {
			h[rng.Intn(taps)] = specials[rng.Intn(len(specials))]
		}
		checkConvolve(t, x, h)
	}
	// All-negative-zero input: every product is ±0, and the sum must
	// keep the scatter loop's +0 start.
	x := make([]complex128, 40)
	for i := range x {
		x[i] = complex(negZero, negZero)
	}
	checkConvolve(t, x, []float64{1, -1, 0.5, negZero, 2})
}

// FuzzConvolveDispatch is the FIR half of `make fuzz-simd`: raw bytes
// become float64 bits (so NaN, ±Inf, subnormals and −0 all appear) for
// a tap count of 1..200 and a signal of 0..3×taps samples, and every
// dispatch mode must match the scatter reference bit for bit under the
// kernels' NaN-as-a-class contract.
func FuzzConvolveDispatch(f *testing.F) {
	rng := rand.New(rand.NewSource(14))
	blob := make([]byte, 8*300)
	rng.Read(blob)
	f.Add(uint8(128), blob)
	special := make([]byte, 0, 8*64)
	for i := 0; i < 64; i++ {
		v := []uint64{
			math.Float64bits(math.NaN()), math.Float64bits(math.Inf(1)),
			math.Float64bits(math.Inf(-1)), 1 << 63, 1, math.Float64bits(0.5),
		}[i%6]
		for b := 0; b < 8; b++ {
			special = append(special, byte(v>>(8*b)))
		}
	}
	f.Add(uint8(8), special)

	f.Fuzz(func(t *testing.T, tapByte uint8, raw []byte) {
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			var bits uint64
			for b := 0; b < 8; b++ {
				bits |= uint64(raw[8*i+b]) << (8 * b)
			}
			vals[i] = math.Float64frombits(bits)
		}
		taps := 1 + int(tapByte)%200
		if len(vals) < taps {
			t.Skip("not enough bytes for the taps")
		}
		h, rest := vals[:taps], vals[taps:]
		n := min(len(rest)/2, 3*taps)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rest[2*i], rest[2*i+1])
		}
		checkConvolve(t, x, h)
	})
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
