package wifi

import (
	"errors"
	"math"
	"math/cmplx"
	"sync"

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
	// constellation (NCBPS bits per data symbol, before deinterleaving and
	// Viterbi decoding). A monitor-mode decoder uses it to detect the
	// quaternary (eq. 5) codeword rotations, which are invisible after
	// convolutional decoding.
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
	// CFOCorrection enables carrier-frequency-offset estimation and
	// removal: coarse from the two LTF copies, refined by averaging every
	// data symbol's cyclic-prefix correlation. Both trackers are
	// pilot-free and therefore transparent to the tag's modulation. On by
	// default (commodity chips always correct CFO).
	CFOCorrection bool
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
}

// NewReceiver returns a receiver with the default detection threshold and
// CFO correction enabled.
func NewReceiver() *Receiver {
	return &Receiver{DetectionThreshold: 0.30, CFOCorrection: true}
}

// Receive finds and decodes the first PPDU in the capture.
func (rx *Receiver) Receive(cap *signal.Signal) (*RxPacket, error) {
	start, quality := rx.DetectPreamble(cap)
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
	start, _ := rx.detectTiming(cap)
	if start < 0 {
		return -1, 0
	}
	return start, ltfPeriodicity(cap.Samples, start)
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

// detectTiming finds the best LTF matched-filter alignment.
func (rx *Receiver) detectTiming(cap *signal.Signal) (int, float64) {
	templateOnce.Do(initTemplates)
	lt := ltfConjTmpl
	ltPow := ltfTmplPower
	n := len(cap.Samples)
	// The first LTF copy begins at preambleStart+192. Search for two
	// consecutive correlation peaks 64 samples apart.
	best, bestQ := -1, 0.0
	// Long scans (the early break below only fires from an offset that
	// itself clears the q1 gate, so a capture whose data region never
	// correlates is scanned end to end) are pre-screened with an FFT
	// matched-filter pass that proves q1 < 0.5 for almost every offset;
	// the exact loop body then runs only on the survivors. The screen is
	// lazy — each 512-sample FFT block is evaluated only when the scan
	// first asks about an offset inside it — so a capture whose packet
	// detects near the front (the common case) screens a few blocks
	// instead of the whole tail. Screened-out offsets have no side effects
	// in this loop, so the result is bit-identical to the plain scan.
	last := n - PreambleLen - SymbolLen
	var sc ltfScreener
	useScreen := last+1 >= screenMinOffsets
	if useScreen {
		a := signal.GetArena()
		defer a.Release()
		sc.init(cap.Samples, 192, last+1, a)
	}
	for i := 0; i+PreambleLen+SymbolLen <= n; i++ {
		// The LTF is 64-sample periodic, so misalignments by a whole FFT
		// window also correlate; keep scanning a full symbol past the best
		// candidate before accepting it. Checked before the screen so that
		// an accepted detection stops the scan — and the lazy screen —
		// immediately instead of screening the rest of the capture for one
		// more survivor.
		if bestQ > 0.5 && i > best+SymbolLen {
			break
		}
		if useScreen && !sc.passAt(i) {
			continue
		}
		// Candidate position of first LTF symbol.
		p := i + 192
		c1, p1 := corr64(cap.Samples[p:], lt)
		if p1 == 0 {
			continue
		}
		q1 := cmplx.Abs(c1) / math.Sqrt(p1*ltPow)
		if q1 < 0.5 {
			continue
		}
		c2, p2 := corr64(cap.Samples[p+FFTSize:], lt)
		if p2 == 0 {
			continue
		}
		q2 := cmplx.Abs(c2) / math.Sqrt(p2*ltPow)
		q := (q1 + q2) / 2
		if q > bestQ {
			best, bestQ = i, q
		}
	}
	return best, bestQ
}

// corr64 correlates x against a template supplied in conjugated form
// (cref[i] = conj(ref[i])). Conjugation is exact and the real-arithmetic
// body below performs the same multiplies and adds, in the same order, as
// the historical `acc += x[i] * cmplx.Conj(ref[i])` loop, so the result is
// bit-identical while the matched-filter scan avoids per-sample conjugation
// and bounds checks.
func corr64(x []complex128, cref []complex128) (complex128, float64) {
	if len(x) < len(cref) {
		return 0, 0
	}
	x = x[:len(cref):len(cref)]
	var accR, accI, pow float64
	for i, c := range cref {
		v := x[i]
		vr, vi := real(v), imag(v)
		cr, ci := real(c), imag(c)
		accR += vr*cr - vi*ci
		accI += vr*ci + vi*cr
		pow += vr*vr + vi*vi
	}
	return complex(accR, accI), pow
}

// The overlap-save matched-filter screen. Each block of screenFFTSize
// input samples yields screenBlockOut correlation outputs against the
// 64-tap LTF template, turning the O(64·n) scan into O(n·log n) for the
// common case where nothing past the preamble correlates.
const (
	screenFFTSize    = 512
	screenBlockOut   = screenFFTSize - FFTSize + 1
	screenMinOffsets = 2048
)

var (
	screenOnce sync.Once
	// screenH is the screenFFTSize-point FFT of the time-reversed
	// conjugated LTF, so multiplying by it in the frequency domain
	// computes the same cross-correlation corr64 evaluates directly.
	screenH []complex128
)

func initScreen() {
	templateOnce.Do(initTemplates)
	h := make([]complex128, screenFFTSize)
	for j := 0; j < FFTSize; j++ {
		h[j] = ltfConjTmpl[FFTSize-1-j]
	}
	plan, err := signal.PlanFor(screenFFTSize)
	if err != nil {
		panic(err)
	}
	if err := plan.FFT(h); err != nil {
		panic(err)
	}
	screenH = h
}

// ltfScreener marks which candidate LTF positions p in [p0, p0+count)
// could possibly pass detectTiming's exact q1 ≥ 0.5 gate. An offset is
// screened out only when the FFT correlation estimate proves q1 < 0.4 with
// margin: the FFT and the sliding-window power prefix sums differ from the
// exact per-offset computation by relative errors many orders of magnitude
// below the 0.4-vs-0.5 slack, and windows whose power estimate is too
// small to bound reliably are passed through to the exact check instead.
// Survivors are re-evaluated by the unchanged exact loop body, so
// screening never changes detection results.
//
// Screening is incremental: init computes only the O(n) power prefix sums,
// and each screenFFTSize-sample block's matched-filter FFT runs the first
// time passAt asks about an offset in it. detectTiming stops scanning one
// symbol past a confident peak, so on captures that contain a packet the
// screener evaluates a handful of blocks instead of the full capture.
type ltfScreener struct {
	s     []complex128
	p0    int
	count int
	pass  []byte
	pre   []float64
	guard float64
	thr   float64
	plan  *signal.Plan
	buf   []complex128
	done  int // offsets [0, done) have been screened
}

func (sc *ltfScreener) init(s []complex128, p0, count int, a *signal.Arena) {
	screenOnce.Do(initScreen)
	sc.s, sc.p0, sc.count = s, p0, count
	sc.pass = a.Bytes(count) // zeroed: offsets default to screened-out
	sc.done = 0
	region := s[p0 : p0+count+FFTSize-1]
	// The prefix loop assigns pre[1..len]; only pre[0] needs an explicit
	// zero, so the buffer skips the arena's zeroing pass.
	sc.pre = a.FloatUninit(len(region) + 1)
	sc.pre[0] = 0
	sum := 0.0
	for i, v := range region {
		sum += real(v)*real(v) + imag(v)*imag(v)
		sc.pre[i+1] = sum
	}
	// Windows below 1e-5 of the mean power cannot be bounded against
	// prefix-sum cancellation error; pass them to the exact check.
	sc.guard = 1e-5 * float64(FFTSize) * (sum / float64(len(region)))
	// (0.4·sqrt(p1·ltPow))² threshold factor. The inverse transform below
	// is unnormalised (outputs scaled by exactly N, a power of two), so the
	// N² is folded into the threshold rather than divided out per sample.
	sc.thr = 0.16 * ltfTmplPower * float64(screenFFTSize) * float64(screenFFTSize)
	plan, err := signal.PlanFor(screenFFTSize)
	if err != nil {
		// Unreachable (power-of-two size); fail open to the exact scan.
		sc.failOpen()
		return
	}
	sc.plan = plan
	sc.buf = a.Complex(screenFFTSize)
}

// failOpen marks every remaining offset as a survivor so the exact scan
// checks them all.
func (sc *ltfScreener) failOpen() {
	for i := sc.done; i < sc.count; i++ {
		sc.pass[i] = 1
	}
	sc.done = sc.count
}

// passAt reports whether offset u (relative to the screen origin) survives
// the screen, evaluating further blocks on demand.
func (sc *ltfScreener) passAt(u int) bool {
	for u >= sc.done {
		sc.block()
	}
	return sc.pass[u] != 0
}

// block screens the next screenBlockOut offsets starting at sc.done.
func (sc *ltfScreener) block() {
	base := sc.done
	avail := len(sc.s) - (sc.p0 + base)
	if avail > screenFFTSize {
		avail = screenFFTSize
	}
	copy(sc.buf, sc.s[sc.p0+base:sc.p0+base+avail])
	for t := avail; t < screenFFTSize; t++ {
		sc.buf[t] = 0
	}
	if sc.plan.FFT(sc.buf) != nil {
		sc.failOpen()
		return
	}
	for t := range sc.buf {
		sc.buf[t] *= screenH[t]
	}
	if sc.plan.InverseRaw(sc.buf) != nil {
		sc.failOpen()
		return
	}
	lim := sc.count - base
	if lim > screenBlockOut {
		lim = screenBlockOut
	}
	for u := 0; u < lim; u++ {
		c := sc.buf[FFTSize-1+u]
		pw := sc.pre[base+u+FFTSize] - sc.pre[base+u]
		if pw <= sc.guard || real(c)*real(c)+imag(c)*imag(c) >= sc.thr*pw {
			sc.pass[base+u] = 1
		}
	}
	sc.done = base + lim
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
	if rx.CFOCorrection {
		// Work on a corrected copy of the packet region: coarse estimate
		// from the LTF copies, then (after SIGNAL tells us the length) a
		// cyclic-prefix refinement over the whole data region. Every read of
		// the copy below is at an index ≥ start (preamble, SIGNAL and data
		// symbols all begin there), so the [0, start) prefix can stay
		// uninitialised.
		buf := arena.ComplexUninit(len(s))
		copy(buf[start:], s[start:])
		cfo := estimateCFOFromLTF(buf[start+160 : start+320])
		derotate(buf[start:], cfo)
		s = buf
	}

	h := estimateChannel(s[start+160:start+320], arena)
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
	sigBits, err := demapSymbolInto(arena.Bytes(r6.NCBPS)[:0], &pts, r6)
	if err != nil {
		return nil, err
	}
	deinter := arena.Bytes(r6.NCBPS)
	if err := deinterleaveInto(deinter, sigBits, r6); err != nil {
		return nil, err
	}
	decoded, err := ViterbiDecodeInto(arena.Bytes(r6.NCBPS/2), deinter)
	if err != nil {
		return nil, err
	}
	rate, length, err := parseSignal(decoded)
	if err != nil {
		return nil, err
	}

	nSym := NumDataSymbols(length, rate)
	dataStart := sigStart + SymbolLen
	if len(s) < dataStart+nSym*SymbolLen {
		return nil, ErrTruncated
	}

	if rx.CFOCorrection {
		// Residual-CFO refinement over all data symbols' cyclic prefixes,
		// then re-estimate the channel on the re-corrected samples.
		residual := refineCFOFromCP(s[dataStart:], nSym)
		if residual != 0 {
			// s is already this decode's private arena copy (the coarse
			// correction above always runs first), so the residual can
			// derotate it in place instead of copying to a second buffer.
			end := dataStart + nSym*SymbolLen
			derotate(s[start:end], residual)
			h = estimateChannel(s[start+160:start+320], arena)
			eq.init(h)
		}
	}

	// Data symbols. demapped escapes into the packet, so it is a real
	// allocation; the deinterleaved coded stream stays on the arena.
	var tracker phaseTracker
	demapped := make([]byte, 0, nSym*rate.NCBPS)
	// Every byte of coded is assigned by deinterleaveInto (the permutation
	// covers all NCBPS positions per symbol) before the decoder reads it,
	// so the scratch skips the arena's zeroing pass.
	coded := arena.BytesUninit(nSym * rate.NCBPS)
	var pilotPhases []float64
	if rx.CollectPilotPhases {
		pilotPhases = make([]float64, 0, nSym)
	}
	for i := 0; i < nSym; i++ {
		off := dataStart + i*SymbolLen
		if err := disassembleSymbolBuf(s[off:off+SymbolLen], &eq, fftBuf, &pts, &pilots); err != nil {
			return nil, err
		}
		if rx.CollectPilotPhases {
			pilotPhases = append(pilotPhases, pilotPhase(pilots, i+1))
		}
		if rx.PilotPhaseTracking {
			correctPhase(&pts, pilots, i+1)
		}
		if rx.CFOCorrection {
			tracker.correct(&pts, rate.Modulation)
		}
		var err error
		demapped, err = demapSymbolInto(demapped, &pts, rate)
		if err != nil {
			return nil, err
		}
		if err := deinterleaveInto(coded[i*rate.NCBPS:(i+1)*rate.NCBPS], demapped[i*rate.NCBPS:], rate); err != nil {
			return nil, err
		}
	}

	// Rate 1/2 keeps every coded bit ({{true,true}} pattern), so
	// depuncturing is the identity: reuse the coded stream directly instead
	// of copying it. The short-stream guard mirrors Depuncture's error
	// condition; aliasing is safe because ViterbiDecodeInto writes into a
	// separate arena buffer.
	nInfo := nSym * rate.NDBPS
	var depunct []byte
	if rate.Coding == Rate1_2 && len(coded) >= nInfo*2 {
		depunct = coded[:nInfo*2]
	} else if depunct, err = Depuncture(coded, rate.Coding, nInfo); err != nil {
		return nil, err
	}
	// The traceback assigns every output bit, so the destination can skip
	// the arena's zeroing pass too.
	scrambled, err := ViterbiDecodeInto(arena.BytesUninit(nInfo), depunct)
	if err != nil {
		return nil, err
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

// pilotPhase returns the phase of the pilot correlation against the
// expected 802.11 pilot pattern for data symbol symIdx — the quantity
// correctPhase would rotate away. With phase tracking off (FreeRider's
// required receiver behaviour) it directly observes the tag's applied
// rotation plus slowly-varying common phase error, which the differential
// window compare cancels.
func pilotPhase(pilots [NumPilots]complex128, symIdx int) float64 {
	p := PilotPolarity(symIdx)
	var acc complex128
	for i, pl := range PilotSubcarriers {
		expected := complex(pl.Polarity*p, 0)
		acc += pilots[i] * cmplx.Conj(expected)
	}
	return cmplx.Phase(acc)
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
	p := PilotPolarity(symIdx)
	var acc complex128
	for i, pl := range PilotSubcarriers {
		expected := complex(pl.Polarity*p, 0)
		acc += pilots[i] * cmplx.Conj(expected)
	}
	if acc == 0 {
		return
	}
	rot := cmplx.Conj(acc / complex(cmplx.Abs(acc), 0))
	for i := range pts {
		pts[i] *= rot
	}
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
