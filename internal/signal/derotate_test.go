package signal

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/simd"
)

// derotateLoop is the rotor Derotate replaced: one complex multiply per
// sample carries the phasor to the next, renormalised every 1024
// samples. It is kept as the counter-example TestDerotateExactPhase's
// bound must reject.
func derotateLoop(dst, src []complex128, cfo, rate float64) {
	step := cmplx.Exp(complex(0, -2*math.Pi*cfo/rate))
	rot := complex(1, 0)
	for i, v := range src {
		dst[i] = v * rot
		rot *= step
		if i&0x3FF == 0x3FF {
			rot /= complex(cmplx.Abs(rot), 0)
		}
	}
}

// phaseErrorUnits returns the largest |y[i] − exp(j·ω·i)| over the
// samples of a derotated all-ones signal, in units of
// 2⁻⁵²·max(1, |ω·i|): the error the exact phase argument ω·float64(i)
// itself carries scales with its magnitude, so the bound does too.
func phaseErrorUnits(y []complex128, w float64) (worst float64, at int) {
	for i, v := range y {
		arg := w * float64(i)
		d := cmplx.Abs(v - cmplx.Exp(complex(0, arg)))
		if u := d / (0x1p-52 * math.Max(1, math.Abs(arg))); u > worst {
			worst, at = u, i
		}
	}
	return worst, at
}

// TestDerotateExactPhase bounds every sample of Derotate(1) against
// cmplx.Exp of its exact phase by 4·2⁻⁵²·max(1, |ω·i|), in every
// dispatch mode, in place and into a separate dst, at both sample rates
// the receivers derotate at, across offsets up to the LTF estimator's
// range and lengths on and around the 64- and 1024-sample boundaries.
// The historical recurrence must fail the same bound.
func TestDerotateExactPhase(t *testing.T) {
	const bound = 4
	for _, rate := range []float64{20e6, 4e6} {
		for _, cfo := range []float64{1234.5, -20e3, 50e3, 150e3} {
			w := -2 * math.Pi * cfo / rate
			for _, n := range []int{0, 1, 63, 64, 65, 1023, 1025, 41600, 100000} {
				ones := make([]complex128, n)
				for i := range ones {
					ones[i] = 1
				}
				eachDispatchMode(t, func(mode string) {
					label := fmt.Sprintf("%s cfo=%g rate=%g n=%d", mode, cfo, rate, n)
					dst := make([]complex128, n+1)
					dst[n] = 7
					Derotate(dst, ones, 0, cfo, rate)
					if dst[n] != 7 {
						t.Fatalf("%s: wrote past len(src)", label)
					}
					for i, v := range ones {
						if v != 1 {
							t.Fatalf("%s: src[%d] = %v after copying derotate", label, i, v)
						}
					}
					if u, i := phaseErrorUnits(dst[:n], w); u > bound {
						t.Fatalf("%s: sample %d off by %.2f units, bound %d", label, i, u, bound)
					}
					in := append([]complex128(nil), ones...)
					Derotate(in, in, 0, cfo, rate)
					requireSameSamples(t, label+" in place", in, dst[:n])
				})
			}
		}
	}
	old := make([]complex128, 41600)
	for i := range old {
		old[i] = 1
	}
	derotateLoop(old, old, 1234.5, 20e6)
	if u, _ := phaseErrorUnits(old, -2*math.Pi*1234.5/20e6); u <= bound {
		t.Fatalf("historical recurrence within %.2f units; the bound does not separate it", u)
	}
}

// TestDerotateInParts rotates a capture in parts split at random
// multiples of RotorBlock, each part passing its first sample's index,
// and requires the one-shot rotation bit for bit, in every dispatch
// mode. A first index that is not a multiple of RotorBlock panics.
func TestDerotateInParts(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	x := benchSignal(41440).Samples
	for _, cfo := range []float64{-15e3, 2500, 48e3} {
		eachDispatchMode(t, func(mode string) {
			want := make([]complex128, len(x))
			Derotate(want, x, 0, cfo, 20e6)
			for trial := 0; trial < 8; trial++ {
				got := append([]complex128(nil), x...)
				for lo := 0; lo < len(got); {
					hi := min(len(got), lo+RotorBlock*(1+rng.Intn(12)))
					Derotate(got[lo:hi], got[lo:hi], lo, cfo, 20e6)
					lo = hi
				}
				requireSameSamples(t, fmt.Sprintf("%s cfo=%g", mode, cfo), got, want)
			}
		})
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Derotate accepted a first index off the rotor-block grid")
		}
	}()
	Derotate(x[:10], x[:10], 64, 1e3, 20e6)
}

// FuzzDerotateDispatch holds the rotor's kernel to its Go definition on
// raw float bits (NaN, ±Inf, subnormals and −0 all appear): Derotate
// with the offset and rate taken from the input, in both dispatch
// modes, in place and into a separate dst at either 16-byte phase; and
// simd.Rotate against rotateGo with the phasor tables themselves drawn
// from the input. NaN is compared as a class.
func FuzzDerotateDispatch(f *testing.F) {
	rng := rand.New(rand.NewSource(40))
	blob := make([]byte, 8*300)
	rng.Read(blob)
	f.Add(uint8(0), blob)
	special := make([]byte, 0, 8*70)
	for i := 0; i < 70; i++ {
		v := []float64{
			math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, 0.5, 1234.5, 20e6,
		}[i%8]
		bits := math.Float64bits(v)
		for b := 0; b < 8; b++ {
			special = append(special, byte(bits>>(8*b)))
		}
	}
	f.Add(uint8(1), special)

	f.Fuzz(func(t *testing.T, off uint8, raw []byte) {
		if !simd.Enabled() {
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
		if len(vals) < 4 {
			t.Skip("not enough bytes for the offset, rate and a sample")
		}
		cfo, rate, rest := vals[0], vals[1], vals[2:]
		x := make([]complex128, len(rest)/2)
		for i := range x {
			x[i] = complex(rest[2*i], rest[2*i+1])
		}
		n, o := len(x), int(off%2)

		prev := simd.SetEnabled(false)
		defer simd.SetEnabled(prev)
		want := make([]complex128, n)
		Derotate(want, x, 0, cfo, rate)
		simd.SetEnabled(true)
		dst := make([]complex128, n+o)[o:]
		Derotate(dst, x, 0, cfo, rate)
		requireSameSamples(t, "Derotate", dst, want)
		src := append(make([]complex128, o, n+o), x...)[o:]
		Derotate(src, src, 0, cfo, rate)
		requireSameSamples(t, "Derotate in place", src, want)

		// The kernel on one block with arbitrary phasors.
		blk := x[:min(n, RotorBlock)]
		var runs [RotorBlock / simd.RotateRun]complex128
		var tab [simd.RotateRun]complex128
		for k := range tab {
			tab[k] = x[k%n]
		}
		for m := range runs {
			runs[m] = x[n-1-m%n]
		}
		want = want[:len(blk)]
		rotateGo(want, blk, &runs, &tab)
		simd.Rotate(dst[:len(blk)], blk, runs[:], &tab)
		requireSameSamples(t, "Rotate", dst[:len(blk)], want)
	})
}

// BenchmarkDerotate times the rotor on a 41,600-sample WiFi capture, in
// place and into a separate buffer, in each dispatch mode.
func BenchmarkDerotate(b *testing.B) {
	s := benchSignal(41600)
	out := make([]complex128, len(s.Samples))
	modes := []bool{false}
	if simd.HWMode() != "" {
		modes = append(modes, true)
	}
	for _, on := range modes {
		for _, inPlace := range []bool{true, false} {
			dst, name := out, "copy"
			if inPlace {
				dst, name = s.Samples, "inplace"
			}
			prev := simd.SetEnabled(on)
			b.Run(name+"/"+simd.Mode(), func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					Derotate(dst, s.Samples, 0, 1234.5, 20e6)
				}
			})
			simd.SetEnabled(prev)
		}
	}
}
