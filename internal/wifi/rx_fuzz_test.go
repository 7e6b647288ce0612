package wifi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/signal"
	"repro/internal/simd"
)

// fuzzFrames returns short PPDUs, one per modulation order, for the
// receive fuzzer to splice into captures. It is called from the fuzz
// target, not from a package-level initialiser, because the transmitter's
// scrambler and interleaver tables are built by init functions.
func fuzzFrames() [][]complex128 {
	psdu := AppendFCS([]byte("freerider fuzz frame"))
	var out [][]complex128
	for _, mbps := range []int{6, 12, 24, 54} {
		s, err := NewTransmitter().Transmit(psdu, Rates[mbps])
		if err != nil {
			panic(err)
		}
		out = append(out, s.Samples)
	}
	return out
}

// fuzzCapture builds a hostile capture from fuzz input. The raw bytes
// become the background: as float64 bit patterns (NaN, ±Inf, subnormals
// and −0 all appear) when rawBits is set, otherwise as int8 noise about
// 20 dB below a unit-power PPDU. The PPDU, cut to keep of its samples (0
// keeps none) and scaled by gain, is added at offset shift, so the
// receiver meets whole, truncated and shifted preambles as well as pure
// garbage.
func fuzzCapture(raw []byte, rawBits bool, ppdu []complex128, shift, keep uint16, gain int8) *signal.Signal {
	var bg []complex128
	if rawBits {
		bg = make([]complex128, len(raw)/16)
		for i := range bg {
			re := math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i:]))
			im := math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i+8:]))
			bg[i] = complex(re, im)
		}
	} else {
		bg = make([]complex128, len(raw)/2)
		for i := range bg {
			bg[i] = complex(float64(int8(raw[2*i]))/1024, float64(int8(raw[2*i+1]))/1024)
		}
	}
	ppdu = ppdu[:int(keep)%(len(ppdu)+1)]
	off := int(shift) % 2048
	cap := signal.New(SampleRate, max(len(bg), off+len(ppdu)))
	copy(cap.Samples, bg)
	g := complex(float64(gain)/32, 0)
	for i, v := range ppdu {
		cap.Samples[off+i] += v * g
	}
	return cap
}

// FuzzWiFiReceive feeds hostile captures to Receive, with pilot-phase
// tracking and pilot-phase collection toggled by the input. It may not
// panic; it returns a packet or one of the receiver's sentinel errors,
// equal to the unfused reference chain's (refReceive), the pure-Go and
// SIMD kernels (FFT, Viterbi) must agree exactly, and the timing scan
// must match refDetectTiming in both dispatch modes. The seed corpus
// includes every crafted SIGNAL capture of TestCraftedSignalFields, as
// raw float bits.
func FuzzWiFiReceive(f *testing.F) {
	frames := fuzzFrames()
	rng := rand.New(rand.NewSource(5))
	noise := make([]byte, 2400)
	rng.Read(noise)
	n6, n54 := uint16(len(frames[0])), uint16(len(frames[3]))
	// flags: bit 0 pilot-phase tracking, bit 1 pilot-phase collection,
	// bits 2-3 the rate.
	f.Add(noise, false, uint8(0), uint16(300), n6, int8(32))         // whole 6 Mbps PPDU over noise
	f.Add(noise, false, uint8(15), uint16(40), n54, int8(32))        // 54 Mbps, tracking, pilots
	f.Add(noise, false, uint8(1), uint16(40), n6/2, int8(32))        // truncated mid-body
	f.Add(noise, false, uint8(2), uint16(7), uint16(200), int8(-20)) // preamble cut short
	f.Add(noise, true, uint8(4), uint16(0), n6, int8(32))            // PPDU over raw float bits
	f.Add([]byte{}, false, uint8(13), uint16(1), n54, int8(1))       // faint PPDU, no background
	f.Add(noise[:64], true, uint8(0), uint16(0), uint16(0), int8(0)) // garbage only
	for _, c := range craftedSignalCases() {
		raw := make([]byte, 0, 16*len(c.cap.Samples))
		for _, v := range c.cap.Samples {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(real(v)))
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(imag(v)))
		}
		f.Add(raw, true, uint8(0), uint16(0), uint16(0), int8(0))
	}
	f.Fuzz(func(t *testing.T, raw []byte, rawBits bool, flags uint8, shift, keep uint16, gain int8) {
		cap := fuzzCapture(raw, rawBits, frames[flags>>2&3], shift, keep, gain)
		rx := NewReceiver()
		rx.PilotPhaseTracking = flags&1 == 1
		rx.CollectPilotPhases = flags&2 == 2
		requireTimingMatchesRef(t, cap.Samples)
		type result struct {
			pkt *RxPacket
			err error
		}
		var got []result
		run := func() {
			pkt, err := rx.Receive(cap)
			if err == nil && pkt == nil {
				t.Fatal("Receive returned neither a packet nor an error")
			}
			if err != nil && !errors.Is(err, ErrNoPacket) && !errors.Is(err, ErrWeakDetection) &&
				!errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadSignal) && !errors.Is(err, ErrBadRate) {
				t.Fatalf("Receive returned an untyped error: %v", err)
			}
			got = append(got, result{pkt, err})
		}
		prev := simd.SetEnabled(false)
		defer simd.SetEnabled(prev)
		run()
		want, werr := refReceive(rx, cap)
		if got[0].err != werr {
			t.Fatalf("errors differ: fused %v, unfused reference %v", got[0].err, werr)
		}
		requireSamePacket(t, got[0].pkt, want)
		if simd.HWMode() == "" {
			return
		}
		simd.SetEnabled(true)
		run()
		a, b := got[0], got[1]
		if a.err != b.err {
			t.Fatalf("errors differ: go %v, kernel %v", a.err, b.err)
		}
		requireSamePacket(t, a.pkt, b.pkt)
	})
}

// requireSamePacket fails unless a and b are both nil or carry equal
// streams.
func requireSamePacket(t *testing.T, a, b *RxPacket) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("packet presence differs: %v, %v", a, b)
	}
	if a == nil {
		return
	}
	same := a.FCSOK == b.FCSOK &&
		bytes.Equal(a.PSDU, b.PSDU) && bytes.Equal(a.RawBits, b.RawBits) &&
		bytes.Equal(a.DemappedBits, b.DemappedBits) &&
		len(a.PilotPhases) == len(b.PilotPhases)
	for i := 0; same && i < len(a.PilotPhases); i++ {
		same = sameFloat(a.PilotPhases[i], b.PilotPhases[i])
	}
	if !same {
		t.Fatalf("packets differ:\n%+v\n%+v", a, b)
	}
}

// sameFloat is the kernels' exactness contract on one float: identical
// bits, except that two NaNs match whatever their payloads.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}
