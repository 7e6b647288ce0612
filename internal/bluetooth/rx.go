package bluetooth

import (
	"math"
	"slices"

	"repro/internal/bits"
	"repro/internal/signal"
	"repro/internal/simd"
)

// RxFrame is one decoded GFSK frame. The backscatter decoder reads raw
// bits through RawBitsAt instead, so a frame carries only its payload.
type RxFrame struct {
	Payload []byte
	CRCOK   bool
}

// Receiver decodes GFSK frames via FM discrimination.
type Receiver struct {
	// DetectionThreshold is the minimum normalised access-address frequency
	// correlation (0..1) to accept a frame.
	DetectionThreshold float64
	// WhitenSeed must match the transmitter's.
	WhitenSeed byte
	// CollectPower makes Demod also retain the per-sample filtered power
	// |y[n]|², which Demodulated.BitPowers folds into per-bit means. A
	// flipped bit's FSK tone is toggled to a sideband the channel filter
	// mostly rejects, so its in-band power drops — the single-receiver
	// flip feature. Off by default so the dual-receiver path allocates
	// nothing extra.
	CollectPower bool
}

// channelFilter is the shared ±500 kHz channel-selection filter, 129
// taps: a transition band narrow enough to sit ~50 dB down at the
// ±750 kHz mirror sideband a backscatter tag's square-wave mixer produces
// (eq. 10 relies on this rejection). The design depends only on package
// constants, so every receiver shares one read-only filter, its spectrum
// built once (the core session builds a receiver per packet).
var channelFilter = func() *signal.OverlapSave {
	h, err := signal.LowpassFIR(SampleRate, ChannelWidth/2, 129)
	if err != nil {
		panic("bluetooth: channel filter design: " + err.Error())
	}
	f, err := signal.NewOverlapSave(h)
	if err != nil {
		panic("bluetooth: channel filter spectrum: " + err.Error())
	}
	return f
}()

// NewReceiver returns a receiver with defaults matching NewTransmitter.
func NewReceiver() *Receiver {
	return &Receiver{DetectionThreshold: 0.5, WhitenSeed: 0x53}
}

// syncTemplate is the ideal discriminator output (instantaneous frequency,
// normalised to ±1) of preamble + access address, one value per sample.
var syncTemplate = buildSyncTemplate()

func buildSyncTemplate() []float64 {
	b := append(bits.FromBytes([]byte{PreambleByte}), bits.FromBytes(AccessAddress[:])...)
	out := make([]float64, 0, len(b)*SamplesPerBit)
	for _, bit := range b {
		v := -1.0
		if bit&1 == 1 {
			v = 1.0
		}
		for j := 0; j < SamplesPerBit; j++ {
			out = append(out, v)
		}
	}
	return out
}

// Receive finds and decodes the first frame in the capture: the first
// sync at or above the detection threshold whose body reads out.
func (rx *Receiver) Receive(cap *signal.Signal) (*RxFrame, error) {
	a := signal.GetArena()
	defer a.Release()
	disc := rx.DemodInto(cap, a).disc
	for from := 0; ; {
		start, q := rx.detect(disc, from)
		if start < 0 {
			return nil, ErrNoFrame
		}
		if q >= rx.DetectionThreshold {
			if f := rx.decodeFrom(disc, start); f != nil {
				return f, nil
			}
		}
		from = start + SamplesPerBit
	}
}

// Detect locates the first preamble+access-address sync in the capture and
// returns its start sample index and normalised correlation quality
// ((-1, 0) if nothing is found). Backscatter decoding uses this directly:
// the tag leaves the sync header unmodified, so detection works even when
// the body bits are translated and the frame no longer parses.
func (rx *Receiver) Detect(cap *signal.Signal) (int, float64) {
	a := signal.GetArena()
	defer a.Release()
	d := rx.DemodInto(cap, a)
	return d.Detect()
}

// Demodulated is one channel-filter + FM-discrimination pass over a
// capture. Detect and RawBitsAt both start from the discriminator output,
// so callers that need both (the backscatter decoder detects the sync and
// then slices raw bits) run the channel filter, most of the pass's cost,
// once instead of once per query.
type Demodulated struct {
	rx   *Receiver
	disc []float64
	// power is the per-sample filtered power |y[n]|², retained only when
	// the receiver's CollectPower flag was set at Demod time (the filtered
	// samples themselves live in a released arena and cannot be revisited
	// later).
	power []float64
}

// Demod channel-filters and FM-discriminates the capture once, returning a
// pass that answers Detect and RawBitsAt queries against the shared
// discriminator output. Receiver.Detect performs exactly this pass
// internally, so its results are bit-identical.
func (rx *Receiver) Demod(cap *signal.Signal) *Demodulated {
	a := signal.GetArena()
	defer a.Release()
	d := rx.demod(cap, a, nil)
	return &d
}

// DemodInto is Demod with the discriminator output (and the power
// snapshot under CollectPower) checked out of a: the pass is valid only
// until a.Release, and a warm arena makes it allocation-free.
func (rx *Receiver) DemodInto(cap *signal.Signal, a *signal.Arena) Demodulated {
	return rx.demod(cap, a, a)
}

// demod is the channel filter + FM discriminator pass. The filtered
// samples are scratch from a; disc and power come from out, or from the
// heap when out is nil. power is nil when CollectPower is off.
func (rx *Receiver) demod(cap *signal.Signal, a, out *signal.Arena) Demodulated {
	n := len(cap.Samples)
	filtered := channelFilter.FilterInto(a.ComplexUninit(n), cap.Samples, a)
	d := Demodulated{rx: rx, disc: floats(out, n)}
	if rx.CollectPower {
		d.power = floats(out, n)
		for i, v := range filtered {
			d.power[i] = real(v)*real(v) + imag(v)*imag(v)
		}
	}
	discriminateInto(d.disc, &signal.Signal{Rate: cap.Rate, Samples: filtered})
	return d
}

// floats returns n unspecified float64s from out, or from the heap when
// out is nil.
func floats(out *signal.Arena, n int) []float64 {
	if out == nil {
		return make([]float64, n)
	}
	return out.FloatUninit(n)
}

// Detect is Receiver.Detect against the shared discriminator pass.
func (d *Demodulated) Detect() (int, float64) {
	return d.rx.detect(d.disc, 0)
}

// RawBitsAt slices nBits hard bit decisions from the discriminator
// output starting at sample index start, with no framing, sync or
// de-whitening applied. This is what FreeRider's backscatter decoder
// consumes: it already knows the excitation bit stream (receiver 1 reports
// it over the backhaul) and extracts tag data by comparing streams, so it
// does not depend on the translated frame parsing cleanly.
func (d *Demodulated) RawBitsAt(start, nBits int) []byte {
	return rawBitsFrom(d.disc, start, nBits)
}

// BitPowers returns the mean filtered in-band power of up to nBits
// bit-time windows starting at sample index start — the single-receiver
// flip feature's raw material. It returns fewer than nBits entries when
// the capture ends early, and nil when the pass was taken without
// Receiver.CollectPower set.
func (d *Demodulated) BitPowers(start, nBits int) []float64 {
	if d.power == nil {
		return nil
	}
	out := make([]float64, 0, nBits)
	for i := 0; i < nBits; i++ {
		lo := start + i*SamplesPerBit
		hi := lo + SamplesPerBit
		if lo < 0 || hi > len(d.power) {
			break
		}
		var acc float64
		for _, v := range d.power[lo:hi] {
			acc += v
		}
		out = append(out, acc/float64(SamplesPerBit))
	}
	return out
}

// discriminateInto converts a baseband capture into instantaneous
// frequency, writing every element of out[:len(s.Samples)], normalised
// so nominal codewords read ±1, using a quadrature detector:
// Im(x[n]·conj(x[n-1])) ∝ A²·sin(Δφ). The A² weighting suppresses the FM
// "clicks" a backscatter tag's square-wave mixer creates (each RF-switch
// sign flip is a 180° phase jump through an envelope null); a plain
// atan2 discriminator would turn each click into a full-scale spike that
// corrupts the integrate-and-dump decision for the whole bit.
func discriminateInto(out []float64, s *signal.Signal) {
	meanP := 0.0
	if len(s.Samples) >= 2 {
		meanP = s.MeanPower()
	}
	if meanP <= 0 {
		clear(out)
		return
	}
	nominal := math.Sin(2 * math.Pi * Deviation / s.Rate)
	norm := 1 / (meanP * nominal)
	for i := 1; i < len(s.Samples); i++ {
		a, b := s.Samples[i-1], s.Samples[i]
		im := imag(b)*real(a) - real(b)*imag(a)
		out[i] = im * norm
	}
	out[0] = out[1]
}

// syncTemplatePow is the sync template's energy, summed in index order.
var syncTemplatePow = func() float64 {
	var p float64
	for _, v := range syncTemplate {
		p += v * v
	}
	return p
}()

// syncBlock is the number of adjacent scan positions detect correlates
// in one pass: two halves of syncBlock/2 ride in the real and imaginary
// parts of one simd.FIRReal input. Work a pass does beyond an early stop
// is discarded.
const syncBlock = 32

// syncLen is the length of syncTemplate: preamble byte and access
// address, SamplesPerBit samples per bit.
const syncLen = (1 + len(AccessAddress)) * 8 * SamplesPerBit

// syncTaps is syncTemplate in FIRReal's tap order (reversed), so output
// q of the FIR is Σ_j x[q+j]·syncTemplate[j].
var syncTaps = func() []float64 {
	if len(syncTemplate) != syncLen {
		panic("bluetooth: sync template length")
	}
	h := slices.Clone(syncTemplate)
	slices.Reverse(h)
	return h
}()

// detect slides the sync template over the discriminator output from
// sample from on, returning the best start index and normalised
// correlation quality. Position i rates q = acc / sqrt(pow ·
// syncTemplatePow), acc and pow summed in sample order; the first
// position of highest q wins. The correlations run a block at a time
// through correlateSync, and pow is summed only at positions
// signal.EnergyScreen cannot rule out, so every value that reaches the
// result is computed as by a scan that sums everything.
func (rx *Receiver) detect(disc []float64, from int) (int, float64) {
	const tplLen = syncLen
	last := len(disc) - tplLen // final scan position
	best, bestQ := -1, 0.0
	if from > last {
		return best, bestQ
	}
	// Scratch on the stack: detect runs while the caller's arena holds
	// the discriminator output, and a second arena here would keep two
	// checked out per receive.
	var packed [syncBlock/2 + tplLen - 1]complex128
	var acc [syncBlock]float64
	screen := signal.NewEnergyScreen(len(disc)-from, syncTemplatePow)
	for _, x := range disc[from : from+tplLen-1] {
		screen.Enter(x * x)
	}
	for i0 := from; i0 <= last; i0 += syncBlock {
		npos := min(syncBlock, last-i0+1)
		correlateSync(acc[:npos], disc[i0:], &packed)
		for p, ac := range acc[:npos] {
			i := i0 + p
			if i > from {
				screen.Leave(disc[i-1] * disc[i-1])
			}
			screen.Enter(disc[i+tplLen-1] * disc[i+tplLen-1])
			if screen.Empty() {
				continue // pow == 0
			}
			if !screen.Beaten(ac, bestQ) {
				var pow float64
				for _, x := range disc[i : i+tplLen] {
					pow += x * x
				}
				if q := ac / math.Sqrt(pow*syncTemplatePow); q > bestQ {
					best, bestQ = i, q
				}
			}
			// The preamble alternates with a 2-bit period; scan a couple of
			// bit times past the best before accepting. The early-stop gate
			// is a fixed internal constant so ultra-low user thresholds
			// cannot stop the scan on a noise blip before the real sync
			// arrives.
			if bestQ > 0.4 && i > best+2*SamplesPerBit {
				return best, bestQ
			}
		}
	}
	return best, bestQ
}

// correlateSync fills acc[p] with Σ_j disc[p+j]·syncTemplate[j], summed
// from +0 in j order. A full block goes through simd.FIRReal when
// dispatched: its halves ride in the real and imaginary parts of
// packed, and FIRReal sums each part from +0 in input order, the Go
// loop's sum, whenever it reports the outputs finite. The Go loop is
// the definition and covers partial blocks, builds without the kernel
// and non-finite blocks.
func correlateSync(acc, disc []float64, packed *[syncBlock/2 + syncLen - 1]complex128) {
	const half = syncBlock / 2
	if len(acc) == syncBlock && simd.Enabled() {
		for k := range packed {
			packed[k] = complex(disc[k], disc[half+k])
		}
		var out [half]complex128
		if simd.FIRReal(out[:], packed[:], syncTaps) {
			for q, v := range out {
				acc[q], acc[half+q] = real(v), imag(v)
			}
			return
		}
	}
	for p := range acc {
		var sum float64
		for j, r := range syncTemplate {
			sum += disc[p+j] * r
		}
		acc[p] = sum
	}
}

// decodeFrom integrates-and-dumps bits starting at the sync position.
// Returns nil when the capture ends before the frame does.
func (rx *Receiver) decodeFrom(disc []float64, start int) *RxFrame {
	// Skip preamble + AA (40 bits). The length byte is whitened together
	// with the body, so de-whiten its 8 bits alone first to learn how many
	// body bits to read.
	const hdr = 40
	bodyStart := start + hdr*SamplesPerBit
	lenBits := rawBitsFrom(disc, bodyStart, 8)
	if len(lenBits) < 8 {
		return nil
	}
	Whiten(lenBits, rx.WhitenSeed)
	lb, err := bits.ToBytes(lenBits)
	if err != nil {
		return nil
	}
	length := int(lb[0])

	totalBodyBits := (1 + length + 3) * 8
	bodyBits := rawBitsFrom(disc, bodyStart, totalBodyBits)
	if len(bodyBits) < totalBodyBits {
		return nil
	}
	Whiten(bodyBits, rx.WhitenSeed)
	body, err := bits.ToBytes(bodyBits)
	if err != nil {
		return nil
	}
	payload := body[1 : 1+length]
	gotCRC := uint32(body[1+length]) | uint32(body[2+length])<<8 | uint32(body[3+length])<<16

	return &RxFrame{
		Payload: payload,
		CRCOK:   bits.CRC24BLE(payload, 0x555555) == gotCRC,
	}
}

// rawBitsFrom integrates-and-dumps up to nBits bits from sample start of
// the discriminator output, stopping early where the capture ends.
func rawBitsFrom(disc []float64, start, nBits int) []byte {
	out := make([]byte, 0, nBits)
	for i := 0; i < nBits; i++ {
		lo := start + i*SamplesPerBit
		hi := lo + SamplesPerBit
		if hi > len(disc) {
			break
		}
		var acc float64
		for _, v := range disc[lo:hi] {
			acc += v
		}
		if acc >= 0 {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
	}
	return out
}
