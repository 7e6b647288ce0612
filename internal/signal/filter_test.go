package signal

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
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

// osBoundUnits is c in the overlap-save accuracy bound
//
//	|FilterInto − ConvolveInto| ≤ c·2⁻⁵²·Σ|h|·A + 2⁻¹⁰⁰⁰
//
// on every output of a block, A the largest |x| in the block's window.
// It is derived, not fitted (DESIGN.md §8.1), with u = 2⁻⁵³ and N = 512:
// the plan's twiddles come from a recurrence, each step adding at most
// 3.83u, so μ ≤ 255·3.83u ≈ 977u; a radix-2 FFT's normwise error is then
// ε ≤ log₂N·(μ + γ₄(√2+μ)) ≈ 8847u (Higham, Thm 24.2) for the data's
// forward transform, the spectrum's and the inverse, and the spectrum
// product adds √2γ₂. Propagated to one output through ‖·‖∞ ≤ ‖·‖₂ that
// is √N·((2+√N)·ε + √2γ₂)·Σ|h|·A ≈ 4.93e6·u·Σ|h|·A, plus γ₁₃₀·Σ|h|·A
// for the direct sum; 2.5e6 units of 2⁻⁵² cover both. The 2⁻¹⁰⁰⁰ term
// covers underflow: each operation adds at most 2⁻¹⁰⁷⁵, one output
// depends on fewer than 2¹⁶ operations, and none reaches it with a gain
// above N·Σ|h|.
const osBoundUnits = 2.5e6

// btChannelTaps designs the Bluetooth receiver's channel filter: ±500 kHz
// at 8 MHz, 129 taps.
func btChannelTaps(t testing.TB) []float64 {
	t.Helper()
	h, err := LowpassFIR(8e6, 0.5e6, 129)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// checkOverlapSave compares FilterInto with ConvolveInto block by
// block: a block whose window holds a non-finite sample, or whose direct
// output is not finite, must match bit for bit (NaN as a class); every
// other output must sit within the osBoundUnits bound. It returns the
// worst finite error in units of 2⁻⁵²·Σ|h|·A.
func checkOverlapSave(t testing.TB, label string, f *OverlapSave, got, x []complex128) float64 {
	t.Helper()
	want := ConvolveInto(nil, x, f.h)
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	var l1 float64
	for _, v := range f.h {
		l1 += math.Abs(v)
	}
	m := len(f.h)
	lead := m - 1 - (m-1)/2
	step := osBlock - (m - 1)
	worst := 0.0
	for k0 := 0; k0 < len(x); k0 += step {
		k1 := min(k0+step, len(x))
		amax, finite := 0.0, true
		for _, v := range x[max(k0-lead, 0):min(k0-lead+osBlock, len(x))] {
			if !isFinite(v) {
				finite = false
			}
			amax = max(amax, cmplx.Abs(v))
		}
		for k := k0; k < k1; k++ {
			if !finite || !isFinite(want[k]) {
				requireSameSamples(t, fmt.Sprintf("%s block %d", label, k0/step), got[k0:k1], want[k0:k1])
				break
			}
			scale := l1 * amax * 0x1p-52
			err := cmplx.Abs(got[k] - want[k])
			if !(err <= osBoundUnits*scale+0x1p-1000) {
				t.Fatalf("%s: output %d = %v, direct %v: |Δ| %.3g over the bound %.3g",
					label, k, got[k], want[k], err, osBoundUnits*scale+0x1p-1000)
			}
			if scale > 0 {
				worst = max(worst, err/scale)
			}
		}
	}
	return worst
}

func isFinite(v complex128) bool {
	return !math.IsInf(real(v), 0) && !math.IsNaN(real(v)) && !math.IsInf(imag(v), 0) && !math.IsNaN(imag(v))
}

// filterOverlapSave runs FilterInto into a dirty buffer in every dispatch
// mode, demands the modes agree bit for bit, and returns the output.
func filterOverlapSave(t testing.TB, f *OverlapSave, x []complex128) []complex128 {
	t.Helper()
	var first []complex128
	eachDispatchMode(t, func(mode string) {
		a := GetArena()
		defer a.Release()
		dirty := make([]complex128, len(x)+3)
		for i := range dirty {
			dirty[i] = complex(math.NaN(), 7)
		}
		got := f.FilterInto(dirty, x, a)
		if first == nil {
			first = slices.Clone(got)
			return
		}
		requireSameSamples(t, mode+" FilterInto against go", got, first)
	})
	return first
}

// TestChannelFilterMatchesDirect holds the overlap-save channel filter to
// the direct convolution within the stated bound (osBoundUnits) at block
// edges and the Bluetooth capture length, and to it bit for bit on blocks
// a non-finite sample reaches.
func TestChannelFilterMatchesDirect(t *testing.T) {
	f, err := NewOverlapSave(btChannelTaps(t))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	worst := 0.0
	for _, n := range []int{0, 1, 128, 129, 383, 384, 385, 17696} {
		x := randSignal(rng, n)
		got := filterOverlapSave(t, f, x)
		worst = max(worst, checkOverlapSave(t, fmt.Sprintf("n=%d", n), f, got, x))
	}
	t.Logf("worst |Δ| = %.1f·2⁻⁵²·Σ|h|·A (bound %.3g)", worst, float64(osBoundUnits))

	for _, v := range []complex128{complex(math.Inf(1), 0), complex(0, math.Inf(-1)), complex(math.NaN(), 1)} {
		x := randSignal(rng, 17696)
		for _, at := range []int{3, 384*5 + 100, 384*9 - 64, 17690} {
			x[at] = v
		}
		got := filterOverlapSave(t, f, x)
		checkOverlapSave(t, fmt.Sprintf("special %v", v), f, got, x)
	}
}

func TestNewOverlapSaveRejectsTapCounts(t *testing.T) {
	for _, n := range []int{0, osBlock/2 + 1} {
		if _, err := NewOverlapSave(make([]float64, n)); err == nil {
			t.Fatalf("%d taps: no error", n)
		}
	}
}

// FuzzOverlapSave feeds raw float bits (±0, ±Inf, NaN, subnormals) as
// samples through the Bluetooth channel filter's overlap-save form in
// every dispatch mode: the modes must agree bit for bit, and each block
// must match ConvolveInto as checkOverlapSave states.
func FuzzOverlapSave(f *testing.F) {
	rng := rand.New(rand.NewSource(15))
	blob := make([]byte, 16*900)
	rng.Read(blob)
	f.Add(blob)
	special := make([]byte, 0, 16*400)
	for i := 0; i < 800; i++ {
		v := math.Float64bits(rng.NormFloat64())
		if i%97 == 0 {
			v = []uint64{math.Float64bits(math.NaN()), math.Float64bits(math.Inf(1)), 1, 1 << 63}[i/97%4]
		}
		special = binary.LittleEndian.AppendUint64(special, v)
	}
	f.Add(special)
	filt, err := NewOverlapSave(btChannelTaps(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		x := make([]complex128, min(len(raw)/16, 2000))
		for i := range x {
			x[i] = complex(math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i:])),
				math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i+8:])))
		}
		checkOverlapSave(t, "fuzz", filt, filterOverlapSave(t, filt, x), x)
	})
}
