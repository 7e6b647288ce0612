package bluetooth

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/signal"
	"repro/internal/simd"
)

// fuzzFrame is a short frame for the fuzzer to splice into captures.
var fuzzFrame = func() *signal.Signal {
	s, err := NewTransmitter().Transmit([]byte("fuzz"))
	if err != nil {
		panic(err)
	}
	return s
}()

// fuzzCapture builds a hostile capture from fuzz input: the raw bytes
// are the background, as float64 bit patterns (NaN, ±Inf, subnormals,
// −0) when rawBits is set and as small finite int8 noise otherwise, and
// a real frame cut to keep of its samples and scaled by gain is added
// at offset shift — whole, truncated and shifted syncs alike.
func fuzzCapture(raw []byte, rawBits bool, shift, keep uint16, gain int8) *signal.Signal {
	var bg []complex128
	if rawBits {
		bg = make([]complex128, len(raw)/16)
		for i := range bg {
			bg[i] = complex(math.Float64frombits(leUint64(raw[16*i:])), math.Float64frombits(leUint64(raw[16*i+8:])))
		}
	} else {
		bg = make([]complex128, len(raw)/2)
		for i := range bg {
			bg[i] = complex(float64(int8(raw[2*i]))/64, float64(int8(raw[2*i+1]))/64)
		}
	}
	frame := fuzzFrame.Samples[:int(keep)%(len(fuzzFrame.Samples)+1)]
	off := int(shift) % 1024
	cap := signal.New(SampleRate, max(len(bg), off+len(frame)))
	copy(cap.Samples, bg)
	g := complex(float64(gain)/32, 0)
	for i, v := range frame {
		cap.Samples[off+i] += v * g
	}
	return cap
}

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

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameFloat(a[i], b[i]) {
			return false
		}
	}
	return true
}

// btResult is everything one receive pass over a capture reports.
type btResult struct {
	frame  *RxFrame
	err    error
	start  int
	q      float64
	raw    []byte
	powers []float64
}

// detectRef is the scan detect must reproduce: one position at a time,
// the correlation and the window's energy summed from the position's own
// samples in sample order, with detect's quality and early stop.
func detectRef(disc []float64, from int) (int, float64) {
	tpl := syncTemplate
	best, bestQ := -1, 0.0
	for i := from; i+len(tpl) <= len(disc); i++ {
		var acc, pow float64
		for j, r := range tpl {
			x := disc[i+j]
			acc += x * r
			pow += x * x
		}
		if pow <= 0 {
			continue
		}
		q := acc / math.Sqrt(pow*syncTemplatePow)
		if q > bestQ {
			best, bestQ = i, q
		}
		if bestQ > 0.4 && i > best+2*SamplesPerBit {
			break
		}
	}
	return best, bestQ
}

// requireDetectMatchesRef fails unless detect returns detectRef's start
// and quality on disc from sample from on, in every dispatch mode the
// build has.
func requireDetectMatchesRef(t *testing.T, disc []float64, from int) {
	t.Helper()
	ws, wq := detectRef(disc, from)
	prev := simd.Enabled()
	defer simd.SetEnabled(prev)
	for _, on := range []bool{false, true} {
		if simd.SetEnabled(on); on && !simd.Enabled() {
			break
		}
		if s, q := NewReceiver().detect(disc, from); s != ws || !sameFloat(q, wq) {
			t.Fatalf("%d samples from %d (%s): detect (%d, %v), reference (%d, %v)",
				len(disc), from, simd.Mode(), s, q, ws, wq)
		}
	}
}

// TestDetectMatchesReferenceScan checks detect against detectRef in both
// dispatch modes: on the discriminator output of noisy captures with a
// frame at several offsets (or none), long enough for many correlation
// blocks, and on outputs built to trip the energy screen — windows of
// zero energy (all zeros, zero runs, values whose square underflows),
// exact ties (a constant output), prefix sums that cancel (a 1e150
// lead-in before 1e-150 values), a single ±Inf or NaN value and a
// stronger frame after the one that stops the scan — each
// from the start and from offsets inside it, as Receive's retry loop
// passes.
func TestDetectMatchesReferenceScan(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	tplLen := len(syncTemplate)
	cases := map[string][]float64{}
	for _, lead := range []int{0, 700, 5003, -1} { // lead −1: noise only
		n := max(lead, 0) + len(fuzzFrame.Samples) + 200
		cap := signal.New(SampleRate, n)
		for i := range cap.Samples {
			cap.Samples[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * 0.1
		}
		if lead >= 0 {
			for i, v := range fuzzFrame.Samples {
				cap.Samples[lead+i] += v
			}
		}
		cases[fmt.Sprintf("capture lead %d", lead)] = NewReceiver().Demod(cap).disc
	}
	frameDisc := NewReceiver().Demod(fuzzFrame).disc
	scaled := func(lead int, scale float64) []float64 {
		x := make([]float64, lead+len(frameDisc))
		for i, v := range frameDisc {
			x[lead+i] = v * scale
		}
		return x
	}
	cases["zeros"] = make([]float64, 2000)
	cases["underflow"] = scaled(900, 1e-170)
	constant := make([]float64, 1500)
	for i := range constant {
		constant[i] = 0.75
	}
	cases["constant"] = constant
	runs := scaled(2000, 1)
	for i := range runs[:2000] {
		runs[i] = rng.NormFloat64() * 0.2
	}
	clear(runs[100:900])
	clear(runs[1200:1300])
	cases["zero runs"] = runs
	cancel := scaled(1000, 1e-150)
	for i := range cancel[:1000] {
		cancel[i] = 1e150
	}
	cases["cancellation"] = cancel
	// A noisy frame and a clean one after it: the scan must stop after
	// the first, as the reference does, although later positions rate
	// higher.
	twice := scaled(len(frameDisc)+500, 1)
	for i, v := range frameDisc {
		twice[i] = v + rng.NormFloat64()*0.3
	}
	cases["two frames"] = twice
	for name, v := range map[string]float64{"+Inf": math.Inf(1), "-Inf": math.Inf(-1), "NaN": math.NaN()} {
		x := scaled(1000, 1)
		for i := range x[:1000] {
			x[i] = rng.NormFloat64() * 0.2
		}
		x[400] = v
		cases[name] = x
	}
	for name, disc := range cases {
		t.Run(name, func(t *testing.T) {
			n := len(disc)
			for _, from := range []int{0, 1, SamplesPerBit, 399, 401, n / 2, n - tplLen - 3, n - tplLen, n} {
				requireDetectMatchesRef(t, disc, max(from, 0))
			}
		})
	}
}

// FuzzBluetoothReceive feeds hostile captures to Receive and the
// backscatter decoder's Demod queries. Nothing may panic, Receive
// returns a frame or ErrNoFrame, the Go loops and the kernels
// (simd.FIRReal in the channel filter and the sync scan) must give
// identical results, and the sync scan must match detectRef.
func FuzzBluetoothReceive(f *testing.F) {
	rng := rand.New(rand.NewSource(6))
	noise := make([]byte, 1600)
	rng.Read(noise)
	n := uint16(len(fuzzFrame.Samples))
	f.Add(noise, false, uint16(200), n, int8(32))          // whole frame over noise
	f.Add(noise, false, uint16(33), n/2, int8(32))         // truncated mid-body
	f.Add(noise, false, uint16(5), uint16(250), int8(-24)) // sync cut short
	f.Add(noise, true, uint16(0), n, int8(32))             // frame over raw float bits
	f.Add([]byte{}, false, uint16(1), n, int8(1))          // faint frame, no background
	f.Add(noise[:48], true, uint16(0), uint16(0), int8(0)) // garbage only
	f.Fuzz(func(t *testing.T, raw []byte, rawBits bool, shift, keep uint16, gain int8) {
		cap := fuzzCapture(raw, rawBits, shift, keep, gain)
		rx := NewReceiver()
		rx.CollectPower = true
		disc := rx.Demod(cap).disc
		for _, from := range []int{0, int(shift) % 300} {
			requireDetectMatchesRef(t, disc, from)
		}
		var got []btResult
		prev := simd.Enabled()
		defer simd.SetEnabled(prev)
		for _, on := range []bool{false, true} {
			if simd.SetEnabled(on); on && !simd.Enabled() {
				break
			}
			var r btResult
			r.frame, r.err = rx.Receive(cap)
			if (r.err == nil) == (r.frame == nil) {
				t.Fatalf("Receive returned frame %v with error %v", r.frame, r.err)
			}
			if r.err != nil && !errors.Is(r.err, ErrNoFrame) {
				t.Fatalf("Receive returned an untyped error: %v", r.err)
			}
			d := rx.Demod(cap)
			r.start, r.q = d.Detect()
			at := max(r.start, 0)
			r.raw = d.RawBitsAt(at, 64)
			r.powers = d.BitPowers(at, 64)
			got = append(got, r)
		}
		if len(got) < 2 {
			return
		}
		a, b := got[0], got[1]
		if a.err != b.err || a.start != b.start || !sameFloat(a.q, b.q) ||
			!bytes.Equal(a.raw, b.raw) || !sameFloats(a.powers, b.powers) {
			t.Fatalf("dispatch modes differ:\ngo     %+v\nkernel %+v", a, b)
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
	if a.CRCOK != b.CRCOK || !bytes.Equal(a.Payload, b.Payload) {
		t.Fatalf("frames differ:\ngo     %+v\nkernel %+v", a, b)
	}
}
