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
	if !simd.Enabled() {
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
// preamble scan must return detectRef's start and quality with the
// Go correlation loop and with simd.PreambleCorr, over the capture and
// over its tail from an offset inside it.
func FuzzPreambleCorrDispatch(f *testing.F) {
	addCaptureSeeds(f)
	f.Fuzz(func(t *testing.T, raw []byte, rawBits bool, shift, keep uint16, gain int8) {
		cap := fuzzCapture(raw, rawBits, shift, keep, gain)
		for _, from := range []int{0, int(shift) % 300} {
			requireDetectMatchesRef(t, tail(cap, from))
		}
	})
}

// requireDetectMatchesRef fails unless Detect returns detectRef's start
// and quality on the capture in every dispatch mode the build has, and
// DetectPrefix keeps its finality promise on the capture's prefixes.
func requireDetectMatchesRef(t *testing.T, cap *signal.Signal) {
	t.Helper()
	ws, wq := detectRef(cap.Samples)
	bothDispatchModes(func() {
		s, q := NewReceiver().Detect(cap)
		if s != ws || !sameFloat(q, wq) {
			t.Fatalf("%d samples (%s): Detect (%d, %v), reference (%d, %v)",
				len(cap.Samples), simd.Mode(), s, q, ws, wq)
		}
		requirePrefixFinalHolds(t, cap, ws, wq)
	})
}

// requirePrefixFinalHolds fails if DetectPrefix calls an answer on a
// prefix of cap final that is not (ws, wq), Detect's answer on all of
// it. The cuts straddle the shortest prefix the scan's early stop fits
// in (the stop position best+SymbolSamples+1 must be a scan position),
// and add cap's half and the pipeline's 2048-sample prefix.
func requirePrefixFinalHolds(t *testing.T, cap *signal.Signal, ws int, wq float64) {
	t.Helper()
	edge := ws + SymbolSamples + 1 + PreambleSymbols*SymbolSamples
	for _, n := range []int{edge - 1, edge, edge + 1, len(cap.Samples) / 2, 2048} {
		if n < 0 || n > len(cap.Samples) {
			continue
		}
		s, q, final := NewReceiver().DetectPrefix(&signal.Signal{Rate: cap.Rate, Samples: cap.Samples[:n]})
		if final && (s != ws || !sameFloat(q, wq)) {
			t.Fatalf("%d-sample prefix of %d (%s): final (%d, %v), whole capture (%d, %v)",
				n, len(cap.Samples), simd.Mode(), s, q, ws, wq)
		}
	}
}

// tail is the capture from sample from on.
func tail(cap *signal.Signal, from int) *signal.Signal {
	return &signal.Signal{Rate: cap.Rate, Samples: cap.Samples[from:]}
}

// detectRef is the scan Detect must reproduce: one position at a time,
// all 16 slice correlations and the window's energy summed from the
// position's own samples in sample order. It keeps Detect's quality and
// early stop.
func detectRef(x []complex128) (int, float64) {
	best, bestQ := -1, 0.0
	for i := 0; i <= len(x)-len(preambleTemplate); i++ {
		var pw, mag float64
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
		}
		if pw == 0 {
			continue
		}
		if q := mag / math.Sqrt(pw*preamblePow); q > bestQ {
			best, bestQ = i, q
		}
		if bestQ > 0.4 && i > best+SymbolSamples {
			break
		}
	}
	return best, bestQ
}

// TestDetectMatchesReferenceScan checks detect against detectRef in both
// dispatch modes on captures long enough for the correlation window to
// move several times before the frame, over several tails of each,
// including captures the scan crosses without stopping, and on captures
// built to trip the energy screen.
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
			requireDetectMatchesRef(t, tail(cap, from))
		}
	}
	// Captures aimed at the energy screen: windows of zero energy
	// (all-zero captures, zero runs, samples whose energy underflows),
	// exact ties (a constant capture), prefix sums that cancel (a 1e150
	// lead-in before 1e-150 samples), a single ±Inf or NaN sample and a
	// stronger frame after the one that stops the scan, each from the
	// start and from several offsets inside it.
	noisy := func(n int, scale float64) []complex128 {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * complex(scale, 0)
		}
		return x
	}
	withFrame := func(x []complex128, at int, scale float64) []complex128 {
		for i, v := range fuzzFrame.Samples {
			x[at+i] += v * complex(scale, 0)
		}
		return x
	}
	frameLen := len(fuzzFrame.Samples)
	cases := map[string][]complex128{
		"zeros":     make([]complex128, 3000),
		"constant":  make([]complex128, 2500),
		"underflow": withFrame(make([]complex128, 1500+frameLen), 1500, 1e-170),
	}
	for i := range cases["constant"] {
		cases["constant"][i] = complex(0.5, -0.25)
	}
	runs := withFrame(noisy(4000+frameLen, 0.05), 4000, 1)
	clear(runs[300:1900])
	clear(runs[2500:2700])
	cases["zero runs"] = runs
	cancel := withFrame(noisy(1500+frameLen+300, 1e-151), 1500, 1e-150)
	for i := range cancel[:1500] {
		cancel[i] = complex(1e150, -1e150)
	}
	cases["cancellation"] = cancel
	// A noisy frame and a clean one after it: the scan must stop after
	// the first, as the reference does, although later positions rate
	// higher.
	cases["two frames"] = withFrame(withFrame(noisy(2*frameLen+100, 0.3), 0, 1), frameLen+100, 1.5)
	for name, v := range map[string]complex128{
		"+Inf": complex(math.Inf(1), 0), "-Inf": complex(0, math.Inf(-1)), "NaN": complex(math.NaN(), 0),
	} {
		x := withFrame(noisy(2000+frameLen, 0.05), 2000, 1)
		x[700] = v
		cases[name] = x
	}
	for name, x := range cases {
		t.Run(name, func(t *testing.T) {
			for _, from := range []int{0, 1, 699, 701, len(x) / 2, len(x) - len(preambleTemplate) - 3} {
				requireDetectMatchesRef(t, &signal.Signal{Rate: SampleRate, Samples: x[max(from, 0):]})
			}
		})
	}
}

// FuzzZigBeeReceive feeds hostile captures to Receive. It may not panic;
// it returns a frame or one of the receiver's sentinel errors, both
// dispatch modes must agree exactly, and the scan must match detectRef.
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
		requireDetectMatchesRef(t, cap)
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
	if a.FCSOK != b.FCSOK || !bytes.Equal(a.Payload, b.Payload) ||
		!bytes.Equal(a.Symbols, b.Symbols) || !bytes.Equal(a.Flips, b.Flips) {
		t.Fatalf("frames differ:\ngo     %+v\nkernel %+v", a, b)
	}
}
