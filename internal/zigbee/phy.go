package zigbee

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"slices"

	"repro/internal/bits"
	"repro/internal/signal"
)

// Errors returned by the receiver.
var (
	ErrNoFrame   = errors.New("zigbee: no frame found")
	ErrTruncated = errors.New("zigbee: capture truncated before frame end")
)

// Transmitter synthesises 802.15.4 frames at complex baseband.
type Transmitter struct{}

// NewTransmitter returns a ZigBee PHY transmitter.
func NewTransmitter() *Transmitter { return &Transmitter{} }

// Transmit builds the baseband waveform of one PHY frame: preamble (4 zero
// bytes), SFD, 7-bit length, payload, CRC-16 FCS. Unit mean power.
func (t *Transmitter) Transmit(payload []byte) (*signal.Signal, error) {
	if len(payload) > MaxPayload-2 {
		return nil, fmt.Errorf("zigbee: payload %d exceeds %d bytes", len(payload), MaxPayload-2)
	}
	fcs := bits.CRC16CCITT(payload)
	frame := make([]byte, 0, 6+len(payload)+2)
	frame = append(frame, 0, 0, 0, 0, SFD, byte(len(payload)+2))
	frame = append(frame, payload...)
	frame = append(frame, byte(fcs), byte(fcs>>8))

	chips, err := SpreadSymbols(SymbolsFromBytes(frame))
	if err != nil {
		return nil, err
	}
	return ModulateChips(chips), nil
}

// ModulateChips produces the OQPSK half-sine waveform of a chip stream.
// Even-indexed chips ride the in-phase rail, odd-indexed chips the
// quadrature rail delayed by half a chip — the structure whose 180°-flip
// sensitivity §3.2.2 of the paper discusses.
func ModulateChips(chips []byte) *signal.Signal {
	n := (len(chips) + 2) * SamplesPerChip
	s := signal.New(SampleRate, n)
	for k, c := range chips {
		level := float64(2*int(c&1) - 1)
		// Chip k's half-sine spans t in [k, k+2] chip periods.
		start := k * SamplesPerChip
		for i := 0; i < 2*SamplesPerChip; i++ {
			v := level * halfSine[i]
			idx := start + i
			if idx >= n {
				break
			}
			if k%2 == 0 {
				s.Samples[idx] += complex(v, 0)
			} else {
				s.Samples[idx] += complex(0, v)
			}
		}
	}
	// Normalise to unit mean power (I and Q rails overlap giving ~1.0).
	p := s.MeanPower()
	if p > 0 {
		s.Scale(complex(1/math.Sqrt(p), 0))
	}
	return s
}

// RxFrame is one decoded 802.15.4 frame: the symbol and flip streams the
// backscatter decoders compare against the excitation, and the payload.
// The receiver measures no frame power; the backscatter session reports the
// link budget's RSSI.
type RxFrame struct {
	Payload []byte
	Symbols []byte // decoded PSDU symbols, the ones after the length field
	FCSOK   bool
	// Flips is the per-symbol flip feature, aligned 1:1 with Symbols: 1
	// when the chip window correlated better with the complemented
	// codebook than the true one (bestC + worstC < 0, see bestSymbol),
	// i.e. the tag was phase-inverting during that symbol. Collected only when
	// Receiver.CollectFlips is set; the single-receiver differential
	// decoder consumes it.
	Flips []byte
}

// Receiver decodes 802.15.4 frames from complex baseband captures. It
// always removes carrier frequency offset: the offset is estimated from
// the symbol-periodic preamble (delay-one-symbol autocorrelation) and
// derotated before coherent demodulation. The estimate reads only the
// preamble, hence is transparent to the tag's data-region phase
// modulation.
type Receiver struct {
	// DetectionThreshold is the minimum normalised preamble correlation.
	DetectionThreshold float64
	// CollectFlips records each data symbol's complemented-codebook flip
	// feature on RxFrame.Flips for the single-receiver differential
	// decoder. Off by default so the dual-receiver path's work and
	// allocations are unchanged.
	CollectFlips bool
}

// NewReceiver returns a receiver with the default threshold.
func NewReceiver() *Receiver { return &Receiver{DetectionThreshold: 0.5} }

// estimateCFO reads the frequency offset from the preamble's symbol
// periodicity in two stages: the lag-1 autocorrelation gives a coarse,
// wide-range estimate (±31 kHz unambiguous) and the lag-4 autocorrelation
// a 4× finer one whose 2π ambiguity the coarse stage resolves. The finer
// stage matters because even ~100 Hz of residual rotates the constellation
// by a radian over a full 802.15.4 frame.
func estimateCFO(s []complex128, start int, rate float64) float64 {
	lagEstimate := func(lag int) (float64, bool) {
		var acc complex128
		n := (PreambleSymbols - lag) * SymbolSamples
		for i := 0; i < n; i++ {
			acc += s[start+i+lag*SymbolSamples] * cmplx.Conj(s[start+i])
		}
		if acc == 0 {
			return 0, false
		}
		return cmplx.Phase(acc) / (2 * math.Pi * float64(lag*SymbolSamples)) * rate, true
	}
	coarse, ok := lagEstimate(1)
	if !ok {
		return 0
	}
	fine, ok := lagEstimate(4)
	if !ok {
		return coarse
	}
	// Unwrap the fine estimate onto the coarse one: its ambiguity step is
	// rate/(4·SymbolSamples).
	step := rate / float64(4*SymbolSamples)
	fine += step * math.Round((coarse-fine)/step)
	return fine
}

// halfSine tabulates the chip pulse shape once; every chip multiplies the
// same SamplesPerChip·2 sine values by ±1, so the table is bit-identical to
// the former per-sample math.Sin calls.
var halfSine = buildHalfSine()

func buildHalfSine() []float64 {
	t := make([]float64, 2*SamplesPerChip)
	for i := range t {
		t[i] = math.Sin(math.Pi * float64(i) / float64(2*SamplesPerChip))
	}
	return t
}

// preambleTemplate is the modulated 8-symbol preamble used for detection
// and channel-gain estimation.
var preambleTemplate = buildPreambleTemplate()

// preambleConjTemplate caches the conjugated template for the detection
// scan's inner correlation loop.
var preambleConjTemplate = buildPreambleConjTemplate()

func buildPreambleConjTemplate() []complex128 {
	out := make([]complex128, len(preambleTemplate))
	for i, v := range preambleTemplate {
		out[i] = cmplx.Conj(v)
	}
	return out
}

func buildPreambleTemplate() []complex128 {
	chips, err := SpreadSymbols(make([]byte, PreambleSymbols))
	if err != nil {
		panic("zigbee: preamble spread: " + err.Error())
	}
	return ModulateChips(chips).Samples[:PreambleSymbols*SymbolSamples]
}

// Receive finds and decodes the first frame in the capture.
func (rx *Receiver) Receive(cap *signal.Signal) (*RxFrame, error) {
	return rx.ReceiveOnDemand(cap, func(int) {})
}

// ReceiveOnDemand is Receive on a capture whose samples are computed as
// they are read: cap has the capture's whole length, and once fill(n)
// returns its first n samples hold their values (an n at or past the
// end computes all of them). Detection reads no sample before asking
// for it, and a missing or weak preamble fails before the rest is asked
// for, so a frame lost at detection never computes it. The answer is
// Receive's on the finished capture.
func (rx *Receiver) ReceiveOnDemand(cap *signal.Signal, fill func(n int)) (*RxFrame, error) {
	start, q := rx.detect(cap, fill)
	if start < 0 || q < rx.DetectionThreshold {
		return nil, ErrNoFrame
	}
	fill(len(cap.Samples))
	return rx.decodeFrom(cap, start)
}

// detectSegments is the number of preamble slices correlated separately:
// summing per-slice correlation magnitudes keeps detection working under
// carrier offsets that would smear one long coherent correlation (each
// 8 µs slice only rotates ~58° at 20 kHz CFO).
const detectSegments = PreambleSymbols * 2

// detectSeg is the length in samples of one detection slice.
const detectSeg = PreambleSymbols * SymbolSamples / detectSegments

// detectBlock is the number of adjacent scan positions rated in one
// pass; each pass correlates detectBlock new sample indices. Work a
// pass does beyond an early stop is discarded.
const detectBlock = 16

// detectSpan is the number of sample indices whose slice correlations
// one pass reads: from its first position's slice 0 to its last
// position's final slice.
const detectSpan = detectBlock + (detectSegments-1)*detectSeg

// detectWindow bounds detect's per-sample magnitude buffers: one span
// plus 24 passes, so the scan moves their unread tail to the front once
// every 24 passes, the three templates' magnitudes fit in 32 KB, and
// the scratch does not grow with the capture.
const detectWindow = detectSpan + 24*detectBlock

// detectChunk is the number of sample indices correlated into stack
// scratch at a time before their magnitudes are stored.
const detectChunk = 64

// preamblePow is the preamble template's energy, summed in index order.
var preamblePow = func() float64 {
	var p float64
	for _, v := range preambleTemplate {
		p += real(v)*real(v) + imag(v)*imag(v)
	}
	return p
}()

// sliceTemplates are the distinct detection slices of the conjugated
// preamble, and sliceType[s] is the index of the one slice s equals bit
// for bit. The preamble repeats one symbol whose chips alternate rails,
// so the 16 slices have three templates (slice 0, the odd slices, the
// even slices from 2) and Detect correlates each sample three times
// rather than once per slice and position. The map is built by
// comparison, so a template change cannot silently break it.
var sliceTemplates, sliceType = buildSliceTypes()

// sliceReach[t] is the offset of the last slice with template t: a pass
// over positions [i0, i0+npos) reads that template's correlations up
// to sample i0+npos−1+sliceReach[t], and Detect computes no further.
var sliceReach = func() (r [detectSegments]int) {
	for s, t := range &sliceType {
		r[t] = s * detectSeg
	}
	return r
}()

func buildSliceTypes() ([][]complex128, [detectSegments]int) {
	var tpls [][]complex128
	var typ [detectSegments]int
	for s := range typ {
		cs := preambleConjTemplate[s*detectSeg : (s+1)*detectSeg : (s+1)*detectSeg]
		typ[s] = slices.IndexFunc(tpls, func(t []complex128) bool { return sameBits(t, cs) })
		if typ[s] < 0 {
			typ[s] = len(tpls)
			tpls = append(tpls, cs)
		}
	}
	return tpls, typ
}

// sameBits reports whether two equal-length slices hold the same bits.
func sameBits(a, b []complex128) bool {
	for i, v := range a {
		w := b[i]
		if math.Float64bits(real(v)) != math.Float64bits(real(w)) ||
			math.Float64bits(imag(v)) != math.Float64bits(imag(w)) {
			return false
		}
	}
	return true
}

// Detect locates the first preamble in the capture, returning its start
// sample index and the normalised correlation quality ((-1, 0) if nothing
// is found). It correlates the preamble template slice-wise; position i
// rates
//
//	q = Σ_s |acc_s| / sqrt(pw · preamblePow)
//
// with acc_s slice s's correlation at x[i+s·detectSeg] and pw the
// window's energy summed in sample order; the first position of highest
// q wins. Every slice correlation and its magnitude is computed once per
// sample index and template, not once per position and slice; pw is
// summed only at positions signal.EnergyScreen cannot rule out. Every
// value that reaches the result is computed as by a scan that sums
// everything.
func (rx *Receiver) Detect(cap *signal.Signal) (int, float64) {
	return rx.detect(cap, func(int) {})
}

// detect is Detect calling fill through the samples the screen's first
// window and then each pass read, before reading the capture that far
// (see ReceiveOnDemand).
func (rx *Receiver) detect(cap *signal.Signal, fill func(n int)) (int, float64) {
	x := cap.Samples
	const tplLen = PreambleSymbols * SymbolSamples
	last := len(x) - tplLen // final scan position
	if last < 0 {
		return -1, 0
	}
	// h[t][k-base] is the magnitude of sample k's correlation with
	// sliceTemplates[t], filled for base ≤ k < filled[t] as far as the
	// passes read; position i's slice s is sample i+s·detectSeg of its
	// template, hs[s][i-base]. When a pass would read past the window,
	// the part still ahead of the scan moves to its front.
	nt := len(sliceTemplates)
	win := min(len(x), detectWindow)
	a := signal.GetArena()
	defer a.Release()
	hbuf := a.FloatUninit(nt * win)
	var h, hs [detectSegments][]float64
	for t := range nt {
		h[t] = hbuf[t*win : (t+1)*win]
	}
	for s, t := range &sliceType {
		hs[s] = h[t][s*detectSeg:]
	}
	base := 0
	var filled [detectSegments]int
	var corr [detectChunk]complex128
	screen := signal.NewEnergyScreen(len(x), preamblePow)
	fill(tplLen - 1)
	for _, v := range x[:tplLen-1] {
		screen.Enter(signal.Energy(v))
	}
	best, bestQ := -1, 0.0
scan:
	for i0 := 0; i0 <= last; i0 += detectBlock {
		npos := min(detectBlock, last-i0+1)
		seen := i0 + npos - 1 + tplLen
		fill(seen)
		x := x[:seen]
		if i0+npos+(detectSegments-1)*detectSeg-base > win {
			for t := range nt {
				copy(h[t], h[t][i0-base:filled[t]-base])
			}
			base = i0
		}
		for t, tpl := range sliceTemplates {
			need := i0 + npos + sliceReach[t]
			for k := filled[t]; k < need; k += detectChunk {
				c := corr[:min(detectChunk, need-k)]
				signal.Correlate(c, x[k:], tpl)
				ht := h[t][k-base:]
				for j, v := range c {
					ht[j] = math.Hypot(real(v), imag(v))
				}
			}
			filled[t] = need
		}
		for i := i0; i < i0+npos; i++ {
			if i > 0 {
				screen.Leave(signal.Energy(x[i-1]))
			}
			screen.Enter(signal.Energy(x[i+tplLen-1]))
			if screen.Empty() {
				continue // pw == 0
			}
			var mag float64
			for _, hs := range &hs {
				mag += hs[i-base]
			}
			if !screen.Beaten(mag, bestQ) {
				var pw float64
				for _, v := range x[i : i+tplLen] {
					pw += signal.Energy(v)
				}
				if q := mag / math.Sqrt(pw*preamblePow); q > bestQ {
					best, bestQ = i, q
				}
			}
			// The preamble is symbol-periodic, so misalignments by a whole
			// symbol also correlate strongly; keep scanning one full symbol
			// past the best candidate before accepting it. Fixed internal
			// gate: a low user threshold must not stop the scan on a noise
			// blip before the true preamble.
			if bestQ > 0.4 && i > best+SymbolSamples {
				break scan
			}
		}
	}
	return best, bestQ
}

// chipWord packs the 32 chip decisions of the symbol whose chips start
// at samples[symStart] into a word, chip k in bit k: chip k is 1 when
// the real (even k) or imaginary (odd k) half of samples[idx]*inv is
// ≥ 0, where chip k peaks at idx = symStart + (k+1)·SamplesPerChip.
// Only the half a chip reads is computed, spelled as Go lowers the
// complex multiply. ok is false when the capture ends before the last
// chip's peak.
func chipWord(samples []complex128, symStart int, inv complex128) (w uint32, ok bool) {
	end := symStart + ChipsPerSymbol*SamplesPerChip
	if end >= len(samples) {
		return 0, false
	}
	ir, ii := real(inv), imag(inv)
	win := samples[symStart+SamplesPerChip : end+1]
	for k := 0; k < ChipsPerSymbol; k += 2 {
		even, odd := win[k*SamplesPerChip], win[(k+1)*SamplesPerChip]
		w |= chipBit(real(even)*ir-imag(even)*ii >= 0) << k
		w |= chipBit(real(odd)*ii+imag(odd)*ir >= 0) << (k + 1)
	}
	return w, true
}

// chipBit is 1 for a chip decided as 1, 0 otherwise.
func chipBit(one bool) uint32 {
	if one {
		return 1
	}
	return 0
}

// decodeFrom demodulates a frame whose preamble starts at sample start.
// Indices below are relative to start.
func (rx *Receiver) decodeFrom(cap *signal.Signal, start int) (*RxFrame, error) {
	// Derotate the frame region into scratch using the preamble-derived
	// offset, then estimate the channel gain coherently.
	cfo := estimateCFO(cap.Samples, start, cap.Rate)
	a := signal.GetArena()
	defer a.Release()
	samples := a.ComplexUninit(len(cap.Samples) - start)
	signal.Derotate(samples, cap.Samples[start:], 0, cfo, cap.Rate)
	var acc complex128
	for j, r := range preambleTemplate {
		acc += samples[j] * cmplx.Conj(r)
	}
	gain := acc / complex(preamblePow, 0)
	if gain == 0 {
		return nil, ErrNoFrame
	}
	inv := 1 / gain
	demodSymbol := func(symStart int) (byte, byte, error) {
		w, ok := chipWord(samples, symStart, inv)
		if !ok {
			return 0, 0, ErrTruncated
		}
		s, c, worst := bestSymbol(w)
		var flip byte
		if rx.CollectFlips && c+worst < 0 {
			flip = 1
		}
		return s, flip, nil
	}

	// Skip preamble, check SFD (2 symbols), read length, then payload+FCS.
	pos := PreambleSymbols * SymbolSamples
	var hdr [4]byte // SFD low, SFD high, len low, len high nibbles
	for i := 0; i < 4; i++ {
		s, _, err := demodSymbol(pos)
		if err != nil {
			return nil, err
		}
		hdr[i] = s
		pos += SymbolSamples
	}
	if hdr[0]|hdr[1]<<4 != SFD {
		return nil, ErrNoFrame
	}
	length := int(hdr[2] | hdr[3]<<4)
	if length < 2 || length > MaxPayload {
		return nil, ErrNoFrame
	}

	syms := make([]byte, 0, length*2)
	var flips []byte
	if rx.CollectFlips {
		flips = make([]byte, 0, length*2)
	}
	for i := 0; i < length*2; i++ {
		s, flip, err := demodSymbol(pos)
		if err != nil {
			return nil, err
		}
		syms = append(syms, s)
		if rx.CollectFlips {
			flips = append(flips, flip)
		}
		pos += SymbolSamples
	}
	body, err := BytesFromSymbols(syms)
	if err != nil {
		return nil, err
	}
	payload := body[:length-2]
	fcs := uint16(body[length-2]) | uint16(body[length-1])<<8

	return &RxFrame{
		Payload: payload,
		Symbols: syms,
		FCSOK:   bits.CRC16CCITT(payload) == fcs,
		Flips:   flips,
	}, nil
}
