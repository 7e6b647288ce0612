package signal

import (
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"testing"
)

// legacyFFT is the pre-plan in-place FFT, kept verbatim as the bit-identity
// reference: Plan.FFT/IFFT must reproduce its output exactly (==, not
// approximately), or every golden vector in testdata/golden would shift.
func legacyFFT(x []complex128, inverse bool) {
	n := len(x)
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		theta := sign * 2 * math.Pi / float64(size)
		wStep := complex(math.Cos(theta), math.Sin(theta))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
	if inverse {
		d := complex(float64(n), 0)
		for i := range x {
			x[i] /= d
		}
	}
}

func randComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func TestPlanBitIdenticalToLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 128, 256, 1024, 2048} {
		x := randComplex(rng, n)
		want := append([]complex128(nil), x...)
		got := append([]complex128(nil), x...)

		legacyFFT(want, false)
		if err := FFT(got); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d forward bin %d: plan %v, legacy %v", n, i, got[i], want[i])
			}
		}

		legacyFFT(want, true)
		if err := IFFT(got); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d inverse bin %d: plan %v, legacy %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestPlanForRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, -4, 3, 12, 1 << 10 / 3} {
		if _, err := PlanFor(n); err == nil {
			t.Errorf("PlanFor(%d) accepted", n)
		}
	}
	p, err := PlanFor(64)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 64 {
		t.Fatalf("Size = %d", p.Size())
	}
	if err := p.FFT(make([]complex128, 32)); err == nil {
		t.Error("plan accepted wrong-size input")
	}
	if err := p.IFFT(make([]complex128, 128)); err == nil {
		t.Error("plan accepted wrong-size input")
	}
}

func TestPlanForConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	plans := make([]*Plan, 16)
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := PlanFor(512)
			if err != nil {
				t.Error(err)
				return
			}
			plans[i] = p
		}(i)
	}
	wg.Wait()
	for _, p := range plans {
		if p != plans[0] {
			t.Fatal("concurrent PlanFor returned different plan instances")
		}
	}
}

// TestPlanZeroAllocs pins the tentpole guarantee: steady-state plan
// transforms allocate nothing.
func TestPlanZeroAllocs(t *testing.T) {
	p, err := PlanFor(1024)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(float64(i%7), float64(i%5))
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := p.FFT(x); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Plan.FFT allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := p.IFFT(x); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Plan.IFFT allocates %v per run, want 0", n)
	}
}

func TestArenaReuseAndZeroing(t *testing.T) {
	a := GetArena()
	c1 := a.Complex(64)
	c2 := a.Complex(64)
	if &c1[0] == &c2[0] {
		t.Fatal("arena handed out the same buffer twice while held")
	}
	for i := range c1 {
		c1[i] = complex(1, 1)
	}
	b1 := a.Bytes(16)
	b1[0] = 9
	a.Release()

	a = GetArena()
	c3 := a.Complex(48) // smaller request may reuse a released 64-cap buffer
	for i, v := range c3 {
		if v != 0 {
			t.Fatalf("reused complex buffer not zeroed at %d: %v", i, v)
		}
	}
	b2 := a.Bytes(16)
	if b2[0] != 0 {
		t.Fatal("reused byte buffer not zeroed")
	}
	a.Release()
}

func TestConvolveIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, tc := range []struct{ n, taps int }{{1, 1}, {10, 3}, {100, 31}, {257, 101}} {
		x := randComplex(rng, tc.n)
		h := make([]float64, tc.taps)
		for i := range h {
			h[i] = rng.NormFloat64()
		}
		want := Convolve(x, h)
		got := ConvolveInto(nil, x, h)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d taps=%d sample %d: %v vs %v", tc.n, tc.taps, i, got[i], want[i])
			}
		}
	}
	if out := ConvolveInto(nil, nil, []float64{1}); len(out) != 0 {
		t.Error("empty input should give empty output")
	}
}

func TestSpectrumRejectsOversize(t *testing.T) {
	s := New(1e6, 64)
	if _, err := s.Spectrum(128); err == nil {
		t.Error("Spectrum accepted n > len(samples)")
	}
	if _, err := s.Spectrum(64); err != nil {
		t.Errorf("Spectrum rejected n == len(samples): %v", err)
	}
	if _, err := s.Spectrum(0); err == nil {
		t.Error("Spectrum accepted n = 0")
	}
	if _, err := s.Spectrum(48); err == nil {
		t.Error("Spectrum accepted non-power-of-two")
	}
}

func TestDerotateRemovesTone(t *testing.T) {
	const rate = 1e6
	const cfo = 12_345.0
	n := 4096
	x := make([]complex128, n)
	for i := range x {
		phase := 2 * math.Pi * cfo * float64(i) / rate
		x[i] = complex(math.Cos(phase), math.Sin(phase))
	}
	Derotate(x, cfo, rate)
	for i, v := range x {
		if math.Abs(real(v)-1) > 1e-6 || math.Abs(imag(v)) > 1e-6 {
			t.Fatalf("sample %d not derotated to DC: %v", i, v)
		}
	}
	y := []complex128{1, 2, 3}
	Derotate(y, 0, rate)
	if y[0] != 1 || y[1] != 2 || y[2] != 3 {
		t.Fatal("zero-CFO derotate modified samples")
	}
}
