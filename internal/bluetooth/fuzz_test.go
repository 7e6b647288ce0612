package bluetooth

import (
	"bytes"
	"errors"
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

// FuzzBluetoothReceive feeds hostile captures to Receive and the
// backscatter decoder's Demod queries. Nothing may panic,
// Receive returns a frame or ErrNoFrame, and the Go FIR loop and
// simd.FIRReal must give identical results.
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
		var got []btResult
		prev := simd.Enabled()
		defer simd.SetEnabled(prev)
		for _, on := range []bool{false, true} {
			if simd.SetEnabled(on); on && !simd.AVX2Enabled() {
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
	if a.StartIdx != b.StartIdx || a.CRCOK != b.CRCOK || !bytes.Equal(a.Payload, b.Payload) ||
		!bytes.Equal(a.RawBits, b.RawBits) || !sameFloat(a.RSSI, b.RSSI) {
		t.Fatalf("frames differ:\ngo     %+v\nkernel %+v", a, b)
	}
}
