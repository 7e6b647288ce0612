package zigbee

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/signal"
	"repro/internal/simd"
)

// fuzzCapture builds a hostile capture from fuzz input. The raw bytes
// become the background: as float64 bit patterns (NaN, ±Inf, subnormals
// and −0 all appear) when rawBits is set, otherwise as small finite
// int8 noise. A real frame, cut to keep of its samples (0 keeps none)
// and scaled by gain, is added at offset shift, so the scan meets whole,
// truncated and shifted preambles as well as pure garbage.
func fuzzCapture(raw []byte, rawBits bool, shift, keep uint16, gain int8) *signal.Signal {
	var bg []complex128
	if rawBits {
		bg = make([]complex128, len(raw)/16)
		for i := range bg {
			re := math.Float64frombits(leUint64(raw[16*i:]))
			im := math.Float64frombits(leUint64(raw[16*i+8:]))
			bg[i] = complex(re, im)
		}
	} else {
		bg = make([]complex128, len(raw)/2)
		for i := range bg {
			bg[i] = complex(float64(int8(raw[2*i]))/64, float64(int8(raw[2*i+1]))/64)
		}
	}
	frame := fuzzFrame.Samples[:int(keep)%(len(fuzzFrame.Samples)+1)]
	off := int(shift) % 2048
	n := max(len(bg), off+len(frame))
	cap := signal.New(SampleRate, n)
	copy(cap.Samples, bg)
	g := complex(float64(gain)/32, 0)
	for i, v := range frame {
		cap.Samples[off+i] += v * g
	}
	return cap
}

// fuzzFrame is a short frame for the fuzzers to splice into captures.
var fuzzFrame = func() *signal.Signal {
	s, err := NewTransmitter().Transmit([]byte{0x41, 0x88, 0x01, 0x34, 0x12})
	if err != nil {
		panic(err)
	}
	return s
}()

func leUint64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// sameFloat is the receive kernels' exactness contract on one float:
// identical bits, except that two NaNs match whatever their payloads.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// bothDispatchModes runs fn on the Go loops and then on the receive
// kernels, or reports false when this build or CPU has none.
func bothDispatchModes(fn func()) bool {
	prev := simd.Enabled()
	defer simd.SetEnabled(prev)
	simd.SetEnabled(false)
	fn()
	simd.SetEnabled(true)
	if !simd.AVX2Enabled() {
		return false
	}
	fn()
	return true
}

func addCaptureSeeds(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	noise := make([]byte, 1200)
	rng.Read(noise)
	n := uint16(len(fuzzFrame.Samples))
	f.Add(noise, false, uint16(300), n, int8(32))          // whole frame over noise
	f.Add(noise, false, uint16(40), n/3, int8(32))         // truncated mid-body
	f.Add(noise, false, uint16(7), uint16(700), int8(-20)) // preamble cut short
	f.Add(noise, true, uint16(0), n, int8(32))             // frame over raw float bits
	f.Add([]byte{}, false, uint16(1), n, int8(1))          // faint frame, no background
	f.Add(noise[:64], true, uint16(0), uint16(0), int8(0))
}

// FuzzPreambleCorrDispatch is the ZigBee half of `make fuzz-simd`: the
// preamble scan must return the same start, gain and quality with the
// Go correlation loop and with simd.PreambleCorr, over the capture and
// over its tail from an offset inside it.
func FuzzPreambleCorrDispatch(f *testing.F) {
	addCaptureSeeds(f)
	f.Fuzz(func(t *testing.T, raw []byte, rawBits bool, shift, keep uint16, gain int8) {
		cap := fuzzCapture(raw, rawBits, shift, keep, gain)
		rx := NewReceiver()
		for _, from := range []int{0, int(shift) % 300} {
			type result struct {
				start int
				gain  complex128
				q     float64
			}
			var got []result
			bothDispatchModes(func() {
				s, g, q := rx.detect(tail(cap, from))
				got = append(got, result{s, g, q})
			})
			if len(got) < 2 {
				t.Skip("no receive kernels in this build")
			}
			a, b := got[0], got[1]
			if a.start != b.start || !sameFloat(real(a.gain), real(b.gain)) ||
				!sameFloat(imag(a.gain), imag(b.gain)) || !sameFloat(a.q, b.q) {
				t.Fatalf("from %d: go detect %+v, kernel detect %+v", from, a, b)
			}
		}
	})
}

// tail is the capture from sample from on.
func tail(cap *signal.Signal, from int) *signal.Signal {
	return &signal.Signal{Rate: cap.Rate, Samples: cap.Samples[from:]}
}

// detectRef is detect as it was before the per-sample energy buffer:
// one position at a time, each window's energy summed from its own
// samples in k order. It keeps detect's quality, gain and early stop.
func detectRef(x []complex128) (int, complex128, float64) {
	best, bestQ := -1, 0.0
	var bestGain complex128
	for i := 0; i <= len(x)-len(preambleTemplate); i++ {
		var pw, mag float64
		var coh complex128
		for s := 0; s < detectSegments; s++ {
			var accR, accI float64
			for j := s * detectSeg; j < (s+1)*detectSeg; j++ {
				xr, xi := real(x[i+j]), imag(x[i+j])
				cr, ci := real(preambleConjTemplate[j]), imag(preambleConjTemplate[j])
				accR += xr*cr - xi*ci
				accI += xr*ci + xi*cr
				pw += xr*xr + xi*xi
			}
			mag += math.Hypot(accR, accI)
			coh += complex(accR, accI)
		}
		if pw == 0 {
			continue
		}
		if q := mag / math.Sqrt(pw*preamblePow); q > bestQ {
			best, bestQ = i, q
			bestGain = coh / complex(preamblePow, 0)
		}
		if bestQ > 0.4 && i > best+SymbolSamples {
			break
		}
	}
	return best, bestGain, bestQ
}

// TestDetectMatchesReferenceScan checks detect's energy window against
// detectRef in both dispatch modes on captures long enough for the
// window to move several times before the frame, over several tails of
// each, including captures the scan crosses without stopping.
func TestDetectMatchesReferenceScan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, tc := range []struct{ lead, tail int }{
		{0, 40}, {3000, 0}, {9001, 700}, {20000, 5}, {-1, 13000}, // lead −1: noise only
	} {
		n := tc.lead + len(fuzzFrame.Samples) + tc.tail
		if tc.lead < 0 {
			n = tc.tail
		}
		cap := signal.New(SampleRate, n)
		for i := range cap.Samples {
			cap.Samples[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * 0.05
		}
		if tc.lead >= 0 {
			for i, v := range fuzzFrame.Samples {
				cap.Samples[tc.lead+i] += v
			}
		}
		for _, from := range []int{0, 5, max(0, tc.lead-4100), n - len(preambleTemplate) - 3, n} {
			ws, wg, wq := detectRef(cap.Samples[from:])
			bothDispatchModes(func() {
				s, g, q := NewReceiver().detect(tail(cap, from))
				if s != ws || !sameFloat(real(g), real(wg)) || !sameFloat(imag(g), imag(wg)) || !sameFloat(q, wq) {
					t.Fatalf("lead %d from %d (%s): detect (%d, %v, %v), reference (%d, %v, %v)",
						tc.lead, from, simd.Mode(), s, g, q, ws, wg, wq)
				}
			})
		}
	}
}

// FuzzZigBeeReceive feeds hostile captures to Receive. It may not panic;
// it returns a frame or one of the receiver's sentinel errors, and both
// dispatch modes must agree exactly.
func FuzzZigBeeReceive(f *testing.F) {
	addCaptureSeeds(f)
	f.Fuzz(func(t *testing.T, raw []byte, rawBits bool, shift, keep uint16, gain int8) {
		cap := fuzzCapture(raw, rawBits, shift, keep, gain)
		rx := NewReceiver()
		rx.CollectFlips = shift&1 == 1
		type result struct {
			frame *RxFrame
			err   error
		}
		var got []result
		bothDispatchModes(func() {
			fr, err := rx.Receive(cap)
			if err == nil && fr == nil {
				t.Fatal("Receive returned neither a frame nor an error")
			}
			if err != nil && !errors.Is(err, ErrNoFrame) && !errors.Is(err, ErrTruncated) {
				t.Fatalf("Receive returned an untyped error: %v", err)
			}
			got = append(got, result{fr, err})
		})
		if len(got) < 2 {
			return
		}
		a, b := got[0], got[1]
		if a.err != b.err {
			t.Fatalf("errors differ: go %v, kernel %v", a.err, b.err)
		}
		requireSameFrame(t, a.frame, b.frame)
	})
}

func requireSameFrame(t *testing.T, a, b *RxFrame) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("frame presence differs: go %v, kernel %v", a, b)
	}
	if a == nil {
		return
	}
	if a.StartIdx != b.StartIdx || a.FCSOK != b.FCSOK ||
		!bytes.Equal(a.Payload, b.Payload) || !bytes.Equal(a.Symbols, b.Symbols) ||
		!bytes.Equal(a.Flips, b.Flips) || !sameFloat(a.RSSI, b.RSSI) ||
		!sameFloat(a.CorrMargin, b.CorrMargin) {
		t.Fatalf("frames differ:\ngo     %+v\nkernel %+v", a, b)
	}
}
