package wifi

import (
	"errors"
	"math"
	"math/cmplx"

	"repro/internal/bits"
	"repro/internal/signal"
)

// Errors returned by the receiver.
var (
	ErrNoPacket      = errors.New("wifi: no packet found")
	ErrBadSignal     = errors.New("wifi: SIGNAL field fails its parity or length check")
	ErrBadRate       = errors.New("wifi: SIGNAL field carries an unknown rate")
	ErrTruncated     = errors.New("wifi: capture truncated before packet end")
	ErrWeakDetection = errors.New("wifi: preamble correlation below threshold")
)

// RxPacket is one decoded PPDU: the bit and feature streams the
// backscatter decoders compare against the excitation, and the payload.
type RxPacket struct {
	PSDU    []byte // decoded payload bytes (may be corrupt; check FCSOK)
	RawBits []byte // descrambled SERVICE+PSDU+tail bit stream
	FCSOK   bool   // true if the last 4 PSDU bytes are a valid CRC-32 FCS
	// DemappedBits is the hard-decision coded bit stream straight off the
	// constellation, in demap order: NCBPS bits per data symbol, still
	// interleaved, the order CodedBits rebuilds. The decoder reads each
	// bit's trellis gain from here through its slot table. A monitor-mode
	// decoder uses it to detect the quaternary (eq. 5) codeword rotations,
	// which are invisible after convolutional decoding.
	DemappedBits []byte
	// PilotPhases is one pilot-correlation phase per data symbol (radians,
	// in (-π, π]): the phase of Σ pilots·conj(expected), the same
	// correlation pilot phase tracking would correct with. It estimates the
	// tag's applied rotation per symbol, which is what the single-receiver
	// (Double-decker) differential decoder consumes. Collected only when
	// Receiver.CollectPilotPhases is set; index 0 is the SERVICE symbol,
	// which the tag never translates.
	PilotPhases []float64
}

// Receiver decodes 802.11a/g PPDUs from complex baseband captures into
// the streams an RxPacket carries. It measures neither power nor SNR: the
// backscatter session reports the link budget's RSSI, not the capture's.
// Like every commodity chip it removes carrier frequency offset: coarse
// from the two LTF copies, refined by averaging every data symbol's
// cyclic-prefix correlation, with blind constellation-squaring phase
// tracking on BPSK and QPSK. All three are pilot-free and therefore
// transparent to the tag's modulation.
type Receiver struct {
	// DetectionThreshold is the minimum LTF periodicity quality
	// (≈ SNR/(SNR+1), 0..1) to accept a packet; packets below it are
	// treated as undetected, which is how weak backscattered packets get
	// lost in the paper.
	DetectionThreshold float64
	// PilotPhaseTracking enables per-symbol pilot-based phase correction.
	// Commodity Broadcom BCM43xx receivers do not do this (paper §3.2.1),
	// and FreeRider depends on its absence: with tracking on, the tag's
	// phase modulation is corrected away. Off by default.
	PilotPhaseTracking bool
	// CollectPilotPhases records each data symbol's pilot-correlation
	// phase on RxPacket.PilotPhases for the single-receiver differential
	// decoder. Off by default so the dual-receiver path stays
	// allocation-identical. Unlike PilotPhaseTracking this only observes
	// the pilots — the data subcarriers are never corrected.
	CollectPilotPhases bool
	// SkipRSSI has no effect: the receiver measures no packet power. It
	// stays declared because perfbench/replay.go, the benchmark's mirror
	// of the session, still sets it.
	SkipRSSI bool

	// observe, when set, sees each stage's output as decodeFrom produces
	// it (see rxStage); nil, it costs one check per stage. The receiver
	// pin test hashes the float bits it is shown.
	observe func(stage rxStage, pts []complex128, bits []byte)
}

// rxStage names an intermediate output of decodeFrom, in decode order.
type rxStage int

const (
	stageChannel   rxStage = iota // a channel estimate (64 bins; twice when the CP refinement re-estimates)
	stageEqualised                // one data symbol's 48 equalised points
	stageTracked                  // the same points after phase tracking
	stageDemapped                 // the packet's demapped coded bits
	stageDecoded                  // the Viterbi output (still scrambled)
)

// observePts shows the observer a copy of pts, so the stack arrays the
// decode reuses never escape to the heap.
func (rx *Receiver) observePts(stage rxStage, pts []complex128) {
	rx.observe(stage, append([]complex128(nil), pts...), nil)
}

// NewReceiver returns a receiver with the default detection threshold.
func NewReceiver() *Receiver {
	return &Receiver{DetectionThreshold: 0.30}
}

// Receive finds and decodes the first PPDU in the capture.
func (rx *Receiver) Receive(cap *signal.Signal) (*RxPacket, error) {
	start, quality := rx.DetectPreamble(cap)
	return rx.ReceiveAt(cap, start, quality)
}

// ReceiveAt is Receive after its detection: it decodes the PPDU whose
// preamble DetectPreamble, or a final DetectPrefix, placed at start
// with the given quality, and fails as Receive does on a missing or
// weak preamble.
func (rx *Receiver) ReceiveAt(cap *signal.Signal, start int, quality float64) (*RxPacket, error) {
	if start < 0 {
		return nil, ErrNoPacket
	}
	if quality < rx.DetectionThreshold {
		return nil, ErrWeakDetection
	}
	return rx.decodeFrom(cap, start)
}

// DetectPreamble locates the first preamble in the capture by
// cross-correlating with the known 64-sample LTF for timing, then scores
// the candidate with the delay-64 *auto*-correlation of the two LTF copies
// (Schmidl-Cox style). The autocorrelation is channel-independent — echoes
// delay both copies identically — so detection quality measures SNR rather
// than channel flatness, as in commodity chips. Returns the preamble start
// index and the periodicity quality (≈ SNR/(SNR+1)), or (-1, 0).
func (rx *Receiver) DetectPreamble(cap *signal.Signal) (int, float64) {
	start, quality, _ := rx.DetectPrefix(cap)
	return start, quality
}

// DetectPrefix is DetectPreamble on cap when cap holds only the first
// samples of a capture, and reports whether its answer is final: the
// start and quality DetectPreamble returns on every capture that begins
// with cap. It is final when the timing scan stopped by its own rule (a
// candidate above 0.5 with a whole symbol scanned past it, so no later
// position is rated) and the periodicity score's two LTF copies lie
// inside cap. The scan reads nothing past cap, and its energy screen
// only prunes positions it proves cannot win, so the scan length it is
// built for cannot change the answer.
func (rx *Receiver) DetectPrefix(cap *signal.Signal) (start int, quality float64, final bool) {
	start, _, stopped := rx.detectTiming(cap)
	if start < 0 {
		return -1, 0, false
	}
	final = stopped && start+192+2*FFTSize <= len(cap.Samples)
	return start, ltfPeriodicity(cap.Samples, start), final
}

// ltfPeriodicity scores the delay-64 autocorrelation over the two LTF
// copies of a preamble starting at start.
func ltfPeriodicity(s []complex128, start int) float64 {
	p := start + 192
	if p+2*FFTSize > len(s) {
		return 0
	}
	var acc complex128
	var pow float64
	for i := 0; i < FFTSize; i++ {
		a, b := s[p+i], s[p+FFTSize+i]
		acc += b * cmplx.Conj(a)
		pow += (real(a)*real(a) + imag(a)*imag(a) + real(b)*real(b) + imag(b)*imag(b)) / 2
	}
	if pow <= 0 {
		return 0
	}
	return cmplx.Abs(acc) / pow
}

// timingBlock is the number of scan positions detectTiming rates per
// correlation pass.
const timingBlock = 64

// detectTiming finds the best LTF matched-filter alignment: the first
// LTF copy of a preamble starting at i begins at sample i+192, so
// position i rates the copies' correlations with the LTF template,
//
//	qk = |ck| / sqrt(pk · ltfTmplPower)
//
// with ck the correlation over the k-th copy and pk its energy summed in
// sample order. A position whose first copy has p1 == 0 or q1 < 0.5 is
// passed over; the rest rate q = (q1+q2)/2, and the first position of
// highest q wins. The correlations run a block at a time through
// signal.Correlate, once per sample index: position i's second copy is
// position i+64's first. p1 is summed only where signal.EnergyScreen
// cannot prove q1 < 0.5 from |c1|² (EnergyScreen.BeatenSquared, which
// spares the square root of |c1| too), so every value that reaches the
// result is computed as by a scan that sums everything. stopped reports that the early stop below ended the scan
// before its final position.
func (rx *Receiver) detectTiming(cap *signal.Signal) (best int, bestQ float64, stopped bool) {
	templateOnce.Do(initTemplates)
	x := cap.Samples
	best = -1
	last := len(x) - PreambleLen - SymbolLen // final scan position
	if last < 0 {
		return best, bestQ, false
	}
	// c[j] is the correlation at sample i0+192+j: block position j reads
	// its first copy's at c[j] and its second's at c[j+FFTSize], which
	// the next block inherits as its first FFTSize entries.
	var c [timingBlock + FFTSize]complex128
	screen := signal.NewEnergyScreen(len(x), ltfTmplPower)
	for _, v := range x[192 : 192+FFTSize-1] {
		screen.Enter(signal.Energy(v))
	}
	// The screen proves q1 ≤ its bound; the gate rejects only q1 < 0.5.
	gate := math.Nextafter(0.5, 0)
scan:
	for i0 := 0; i0 <= last; i0 += timingBlock {
		npos := min(timingBlock, last-i0+1)
		have := 0
		if i0 > 0 {
			have = copy(c[:], c[timingBlock:])
		}
		signal.Correlate(c[have:npos+FFTSize], x[i0+192+have:], ltfConjTmpl)
		for j := range npos {
			i := i0 + j
			// The LTF is 64-sample periodic, so misalignments by a whole FFT
			// window also correlate; keep scanning a full symbol past the best
			// candidate before accepting it.
			if bestQ > 0.5 && i > best+SymbolLen {
				stopped = true
				break scan
			}
			p := i + 192
			if i > 0 {
				screen.Leave(signal.Energy(x[p-1]))
			}
			screen.Enter(signal.Energy(x[p+FFTSize-1]))
			if screen.Empty() {
				continue // p1 == 0
			}
			if screen.BeatenSquared(signal.Energy(c[j]), gate) {
				continue
			}
			a1 := cmplx.Abs(c[j])
			var p1, p2 float64
			for _, v := range x[p : p+FFTSize] {
				p1 += signal.Energy(v)
			}
			q1 := a1 / math.Sqrt(p1*ltfTmplPower)
			if q1 < 0.5 {
				continue
			}
			for _, v := range x[p+FFTSize : p+2*FFTSize] {
				p2 += signal.Energy(v)
			}
			if p2 == 0 {
				continue
			}
			q2 := cmplx.Abs(c[j+FFTSize]) / math.Sqrt(p2*ltfTmplPower)
			if q := (q1 + q2) / 2; q > bestQ {
				best, bestQ = i, q
			}
		}
	}
	return best, bestQ, stopped
}

// decodeFrom decodes a PPDU whose preamble starts at sample start.
func (rx *Receiver) decodeFrom(cap *signal.Signal, start int) (*RxPacket, error) {
	s := cap.Samples
	if len(s) < start+PreambleLen+SymbolLen {
		return nil, ErrTruncated
	}
	// Every sample-domain scratch buffer in this decode comes from one
	// arena; none of them outlives the call (the packet carries only bit
	// and byte slices), so releasing on return is safe.
	arena := signal.GetArena()
	defer arena.Release()
	// Work on a CFO-corrected copy of the packet region, derotated once
	// per region: the preamble and SIGNAL at the coarse estimate from the
	// LTF copies, then (after SIGNAL gives the length) the decoded region
	// [start, end) at the coarse estimate plus the cyclic-prefix
	// refinement, both from the raw capture. Every read of the copy below
	// is in [start, end), so the rest can stay uninitialised.
	raw := s
	coarse := estimateCFOFromLTF(raw[start+160 : start+320])
	buf := arena.ComplexUninit(len(raw))
	sigEnd := start + PreambleLen + SymbolLen
	derotate(buf[start:sigEnd], raw[start:sigEnd], coarse)
	s = buf

	h := estimateChannel(s[start+160:start+320], arena)
	if rx.observe != nil {
		rx.observePts(stageChannel, h)
	}
	var eq equalizer
	eq.init(h)

	// SIGNAL symbol. The per-symbol outputs live in two stack arrays that
	// every disassemble/demap call reuses by pointer.
	fftBuf := arena.Complex(FFTSize)
	var pts [NumData]complex128
	var pilots [NumPilots]complex128
	sigStart := start + PreambleLen
	if err := disassembleSymbolBuf(s[sigStart:sigStart+SymbolLen], &eq, fftBuf, &pts, &pilots); err != nil {
		return nil, err
	}
	r6 := Rates[6]
	sigGains := arena.Int16Uninit(r6.NCBPS)
	if _, err := demapGainsInto(arena.Bytes(r6.NCBPS)[:0], sigGains, &pts, r6, rxSlots[BPSK][Rate1_2]); err != nil {
		return nil, err
	}
	decoded := arena.Bytes(r6.NCBPS / 2)
	viterbiMaxKernel(decoded, sigGains)
	rate, length, err := parseSignal(decoded)
	if err != nil {
		return nil, err
	}

	nSym := NumDataSymbols(length, rate)
	dataStart := sigStart + SymbolLen
	if len(s) < dataStart+nSym*SymbolLen {
		return nil, ErrTruncated
	}

	// Residual-CFO refinement over all data symbols' cyclic prefixes, then
	// one derotation of the decoded region at the summed offset into the
	// arena copy, and a channel re-estimate on the re-corrected samples.
	// With no residual the region's preamble is rewritten with the bits
	// it already holds, so the estimate stands.
	end := dataStart + nSym*SymbolLen
	residual := refineCFOFromCP(raw[dataStart:], nSym, coarse)
	derotate(s[start:end], raw[start:end], coarse+residual)
	if residual != 0 {
		h = estimateChannel(s[start+160:start+320], arena)
		if rx.observe != nil {
			rx.observePts(stageChannel, h)
		}
		eq.init(h)
	}

	// Data symbols. demapped escapes into the packet, so it is a real
	// allocation. Each symbol's bits also land, as trellis gains, in their
	// slots of the rate-1/2 stream the Viterbi kernel reads: every slot
	// when nothing is punctured, else the stream starts zeroed and the
	// punctured slots stay 0, the erasure gain.
	var tracker phaseTracker
	demapped := make([]byte, 0, nSym*rate.NCBPS)
	slots := rxSlots[rate.Modulation][rate.Coding]
	span := 2 * rate.NDBPS // rate-1/2 slots per symbol
	gains := arena.Int16Uninit(nSym * span)
	if rate.Coding != Rate1_2 {
		clear(gains)
	}
	var pilotPhases []float64
	if rx.CollectPilotPhases {
		pilotPhases = make([]float64, 0, nSym)
	}
	for i := 0; i < nSym; i++ {
		off := dataStart + i*SymbolLen
		if err := disassembleSymbolBuf(s[off:off+SymbolLen], &eq, fftBuf, &pts, &pilots); err != nil {
			return nil, err
		}
		if rx.observe != nil {
			rx.observePts(stageEqualised, pts[:])
		}
		if rx.CollectPilotPhases {
			pilotPhases = append(pilotPhases, cmplx.Phase(pilotCorrelation(pilots, i+1)))
		}
		if rx.PilotPhaseTracking {
			correctPhase(&pts, pilots, i+1)
		}
		tracker.correct(&pts, rate.Modulation)
		if rx.observe != nil {
			rx.observePts(stageTracked, pts[:])
		}
		var err error
		demapped, err = demapGainsInto(demapped, gains[i*span:(i+1)*span], &pts, rate, slots)
		if err != nil {
			return nil, err
		}
	}

	// The traceback assigns every output bit, so the destination can skip
	// the arena's zeroing pass.
	scrambled := arena.BytesUninit(nSym * rate.NDBPS)
	viterbiMaxKernel(scrambled, gains)
	if rx.observe != nil {
		rx.observe(stageDemapped, nil, demapped)
		rx.observe(stageDecoded, nil, scrambled)
	}

	// Descramble: recover the seed from the first 7 SERVICE bits.
	seed := RecoverScramblerSeed(scrambled[:7])
	descrambled := NewScrambler(seed).Scramble(append([]byte(nil), scrambled...))

	psduBits := descrambled[ServiceBits : ServiceBits+8*length]
	psdu, err := bits.ToBytes(psduBits)
	if err != nil {
		return nil, err
	}

	pkt := &RxPacket{
		PSDU:         psdu,
		RawBits:      descrambled,
		FCSOK:        checkFCS(psdu),
		DemappedBits: demapped,
		PilotPhases:  pilotPhases,
	}
	return pkt, nil
}

// pilotCorrelation returns Σ pilots·conj(expected) against the 802.11
// pilot pattern of data symbol symIdx. Its phase is the common rotation
// pilot phase tracking corrects away; with tracking off (FreeRider's
// required receiver behaviour) it directly observes the tag's applied
// rotation plus slowly-varying common phase error, which the differential
// window compare cancels.
func pilotCorrelation(pilots [NumPilots]complex128, symIdx int) complex128 {
	p := PilotPolarity(symIdx)
	var acc complex128
	for i, pl := range PilotSubcarriers {
		expected := complex(pl.Polarity*p, 0)
		acc += pilots[i] * cmplx.Conj(expected)
	}
	return acc
}

// estimateChannel least-squares estimates H on each used bin from the two
// LTF copies (samples are the 160-sample LTF portion: 32 CP + 2×64). The
// returned estimate lives on the caller's arena and is only valid until its
// Release.
func estimateChannel(ltf []complex128, a *signal.Arena) []complex128 {
	h := a.Complex(FFTSize)
	sum := a.Complex(FFTSize)
	buf := a.Complex(FFTSize)
	for rep := 0; rep < 2; rep++ {
		copy(buf, ltf[32+rep*FFTSize:32+(rep+1)*FFTSize])
		if err := fftPlan64.FFT(buf); err != nil {
			return nil
		}
		inv := complex(sqrtNused/float64(FFTSize), 0)
		for i := range buf {
			buf[i] *= inv
		}
		for _, bin := range usedBins {
			sum[bin] += buf[bin]
		}
	}
	for k := -26; k <= 26; k++ {
		if k == 0 {
			continue
		}
		bin := binFor(k)
		h[bin] = sum[bin] / (2 * LTFValue(k))
	}
	return h
}

// correctPhase applies pilot-based common phase error correction (the
// behaviour FreeRider needs receivers NOT to have).
func correctPhase(pts *[NumData]complex128, pilots [NumPilots]complex128, symIdx int) {
	acc := pilotCorrelation(pilots, symIdx)
	if acc == 0 {
		return
	}
	signal.ScaleInto(pts[:], pts[:], cmplx.Conj(acc/complex(cmplx.Abs(acc), 0)))
}

func parseSignal(b []byte) (Rate, int, error) {
	if len(b) < 18 {
		return Rate{}, 0, ErrBadSignal
	}
	parity := byte(0)
	for _, v := range b[:17] {
		parity ^= v & 1
	}
	if parity != b[17]&1 {
		return Rate{}, 0, ErrBadSignal
	}
	var rateBits byte
	for i := 0; i < 4; i++ {
		rateBits = rateBits<<1 | b[i]&1
	}
	rate, ok := RateBySignalBits(rateBits)
	if !ok {
		return Rate{}, 0, ErrBadRate
	}
	length := 0
	for i := 0; i < 12; i++ {
		length |= int(b[5+i]&1) << uint(i)
	}
	if length < 1 {
		return Rate{}, 0, ErrBadSignal
	}
	return rate, length, nil
}

// checkFCS verifies that the last four bytes of the PSDU are the CRC-32 of
// the preceding bytes (the 802.11 FCS).
func checkFCS(psdu []byte) bool {
	if len(psdu) < 5 {
		return false
	}
	n := len(psdu) - 4
	want := bits.CRC32IEEE(psdu[:n])
	got := uint32(psdu[n]) | uint32(psdu[n+1])<<8 | uint32(psdu[n+2])<<16 | uint32(psdu[n+3])<<24
	return want == got
}

// AppendFCS appends the CRC-32 FCS to a MAC frame body, producing a PSDU.
func AppendFCS(frame []byte) []byte {
	crc := bits.CRC32IEEE(frame)
	return append(append([]byte(nil), frame...),
		byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24))
}
