package signal

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/simd"
)

// Plan is a cached FFT plan for one power-of-two transform size: the
// bit-reversal permutation and the per-stage twiddle factors are computed
// once and reused, so the butterfly loops run with zero trigonometry and
// zero heap allocations. Plans are immutable after construction and safe
// for concurrent use.
//
// Bit-identity: the twiddle tables are generated by exactly the recurrence
// the original in-loop computation used (w₀ = 1, wₖ = wₖ₋₁·wStep with
// wStep = e^(±j2π/size)), and the butterflies consume them in the same
// order, so Plan.FFT/IFFT produce bit-for-bit the same output as the
// historical FFT/IFFT. The golden-vector suite depends on this; see
// DESIGN.md §8 before "improving" the twiddle generation.
type Plan struct {
	n      int
	rev    [][2]int32     // bit-reversal swap pairs (j > i only)
	fwd    [][]complex128 // forward twiddles, one table per stage
	inv    [][]complex128 // inverse twiddles
	invDiv complex128     // 1/N normalisation divisor for IFFT
}

// planCache maps transform size to *Plan. Read-mostly: every per-packet
// FFT after the first is a lock-free load.
var planCache sync.Map // int -> *Plan

// PlanFor returns the cached plan for a power-of-two size n, building it on
// first use. Concurrent callers may race to build the first plan; the loser
// is discarded, which is harmless because plans are deterministic.
func PlanFor(n int) (*Plan, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("signal: FFT length %d is not a power of two", n)
	}
	if p, ok := planCache.Load(n); ok {
		return p.(*Plan), nil
	}
	p := newPlan(n)
	actual, _ := planCache.LoadOrStore(n, p)
	return actual.(*Plan), nil
}

func newPlan(n int) *Plan {
	p := &Plan{n: n, invDiv: complex(float64(n), 0)}
	// Bit-reversal permutation, recorded as the exact swap pairs the
	// in-place permutation performs.
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			p.rev = append(p.rev, [2]int32{int32(i), int32(j)})
		}
	}
	// Per-stage twiddles via the same incremental recurrence the butterfly
	// loop historically ran, so every table entry is bit-identical to the
	// value the old code multiplied by.
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		p.fwd = append(p.fwd, twiddles(half, -2*math.Pi/float64(size)))
		p.inv = append(p.inv, twiddles(half, 2*math.Pi/float64(size)))
	}
	return p
}

func twiddles(half int, theta float64) []complex128 {
	wStep := complex(math.Cos(theta), math.Sin(theta))
	tw := make([]complex128, half)
	w := complex(1, 0)
	for k := 0; k < half; k++ {
		tw[k] = w
		w *= wStep
	}
	return tw
}

// Size returns the transform length the plan was built for.
func (p *Plan) Size() int { return p.n }

// FFT computes the in-place unnormalised radix-2 DIT FFT of x, which must
// have exactly the plan's size. Allocation-free.
func (p *Plan) FFT(x []complex128) error {
	if len(x) != p.n {
		return fmt.Errorf("signal: plan size %d, input %d", p.n, len(x))
	}
	p.transform(x, p.fwd)
	return nil
}

// IFFT computes the in-place inverse FFT of x including the 1/N
// normalisation, so IFFT(FFT(x)) == x. Allocation-free.
func (p *Plan) IFFT(x []complex128) error {
	if len(x) != p.n {
		return fmt.Errorf("signal: plan size %d, input %d", p.n, len(x))
	}
	p.transform(x, p.inv)
	// The historical code divided by complex(n, 0), which lowers to the
	// runtime's Smith-algorithm complex division. Its |re| ≥ |im| branch is
	// inlined here with the same operations in the same order (ratio is +0,
	// so the fused terms round identically), avoiding a runtime call per
	// sample; inputs that produce NaN fall back to the runtime for its
	// infinity/zero corrections.
	ratio := imag(p.invDiv) / real(p.invDiv)
	denom := real(p.invDiv) + ratio*imag(p.invDiv)
	for i := range x {
		re, im := real(x[i]), imag(x[i])
		e := (re + im*ratio) / denom
		f := (im - re*ratio) / denom
		if math.IsNaN(e) && math.IsNaN(f) {
			x[i] /= p.invDiv
			continue
		}
		x[i] = complex(e, f)
	}
	return nil
}

// InverseRaw applies the inverse butterflies without the 1/N normalisation:
// InverseRaw(FFT(x)) == N·x. Callers that fold the scale factor into a
// threshold or coefficient table (e.g. the matched-filter screen) skip N
// complex divisions per transform. Allocation-free.
func (p *Plan) InverseRaw(x []complex128) error {
	if len(x) != p.n {
		return fmt.Errorf("signal: plan size %d, input %d", p.n, len(x))
	}
	p.transform(x, p.inv)
	return nil
}

func (p *Plan) transform(x []complex128, stages [][]complex128) {
	for _, s := range p.rev {
		i, j := s[0], s[1]
		x[i], x[j] = x[j], x[i]
	}
	n := p.n
	if simd.Enabled() {
		// Vectorized butterfly passes, bit-identical to the scalar loops
		// below: the kernels vectorize across butterflies but keep the
		// per-butterfly operation order (b·w with the scalar
		// multiply-then-addsub sequence, then a+b / a−b), and the scalar
		// specializations for sizes 2/4/8 also multiply by their unit
		// twiddles, so one uniform pass per stage reproduces them exactly.
		for si, size := 0, 2; size <= n; si, size = si+1, size<<1 {
			simd.FFTPass(x, stages[si], size)
		}
		return
	}
	si, size := 0, 2
	if size <= n {
		// The size-2 stage is n/2 single-butterfly blocks; direct indexing
		// skips two slice constructions per block, which dominated the
		// stage. Operations and order are exactly the generic loop's.
		w := stages[0][0]
		for start := 0; start+1 < n; start += 2 {
			a := x[start]
			b := x[start+1] * w
			x[start] = a + b
			x[start+1] = a - b
		}
		si, size = 1, 4
	}
	if size <= n {
		// Same treatment for the size-4 stage (two butterflies per block).
		w0, w1 := stages[1][0], stages[1][1]
		for start := 0; start+3 < n; start += 4 {
			a := x[start]
			b := x[start+2] * w0
			x[start] = a + b
			x[start+2] = a - b
			a = x[start+1]
			b = x[start+3] * w1
			x[start+1] = a + b
			x[start+3] = a - b
		}
		si, size = 2, 8
	}
	if size <= n {
		// And the size-8 stage (four butterflies per block). Deeper stages
		// keep the generic slice loop: their longer inner runs amortise the
		// slice setup, so specialising them measured flat.
		tw := stages[2]
		w0, w1, w2, w3 := tw[0], tw[1], tw[2], tw[3]
		for start := 0; start+7 < n; start += 8 {
			a := x[start]
			b := x[start+4] * w0
			x[start] = a + b
			x[start+4] = a - b
			a = x[start+1]
			b = x[start+5] * w1
			x[start+1] = a + b
			x[start+5] = a - b
			a = x[start+2]
			b = x[start+6] * w2
			x[start+2] = a + b
			x[start+6] = a - b
			a = x[start+3]
			b = x[start+7] * w3
			x[start+3] = a + b
			x[start+7] = a - b
		}
		si, size = 3, 16
	}
	for ; size <= n; si, size = si+1, size<<1 {
		half := size >> 1
		tw := stages[si]
		for start := 0; start < n; start += size {
			lo := x[start : start+half : start+half]
			hi := x[start+half : start+size : start+size]
			for k := range lo {
				a := lo[k]
				b := hi[k] * tw[k]
				lo[k] = a + b
				hi[k] = a - b
			}
		}
	}
}
