package wifi

import (
	"fmt"
	"math/cmplx"

	"repro/internal/bits"
	"repro/internal/signal"
)

// The unfused 802.11 bit chain, one pass per stage, kept as the reference
// the shared production tables are pinned to: the transmitter's fused
// mappers and CodedBits read the interleaver through mapper.src, the
// receiver decodes through rxSlots, and the scrambler runs from its cycle
// tables. chain_test.go holds each fused path equal to these stages.

// erasure marks a punctured (unknown) coded bit in a depunctured stream;
// ViterbiDecodeInto gives it gain 0.
const erasure byte = 2

// permFor returns the §17.3.5.7 permutation of one symbol at rate r.
func permFor(r Rate) []int32 { return computePerm(r.NCBPS, r.NBPSC) }

// Interleave applies the per-symbol block interleaver to one OFDM symbol's
// worth of coded bits.
func Interleave(in []byte, r Rate) ([]byte, error) {
	out := make([]byte, r.NCBPS)
	if err := interleaveInto(out, in, r); err != nil {
		return nil, err
	}
	return out, nil
}

// interleaveInto is Interleave writing into caller storage (len NCBPS).
func interleaveInto(out, in []byte, r Rate) error {
	if len(in) != r.NCBPS {
		return fmt.Errorf("wifi: interleaver input %d bits, want NCBPS=%d", len(in), r.NCBPS)
	}
	for k, j := range permFor(r) {
		out[j] = in[k]
	}
	return nil
}

// deinterleaveInto inverts Interleave for one OFDM symbol, writing into
// caller storage (len NCBPS).
func deinterleaveInto(out, in []byte, r Rate) error {
	if len(in) != r.NCBPS {
		return fmt.Errorf("wifi: deinterleaver input %d bits, want NCBPS=%d", len(in), r.NCBPS)
	}
	for k, j := range permFor(r) {
		out[k] = in[j]
	}
	return nil
}

// InterleaveSymbols applies the interleaver across a multi-symbol stream
// whose length must be a multiple of NCBPS.
func InterleaveSymbols(in []byte, r Rate) ([]byte, error) {
	if len(in)%r.NCBPS != 0 {
		return nil, fmt.Errorf("wifi: stream length %d not a multiple of NCBPS=%d", len(in), r.NCBPS)
	}
	out := make([]byte, 0, len(in))
	for off := 0; off < len(in); off += r.NCBPS {
		sym, err := Interleave(in[off:off+r.NCBPS], r)
		if err != nil {
			return nil, err
		}
		out = append(out, sym...)
	}
	return out, nil
}

// ConvEncode encodes the bit slice with the rate-1/2 mother code; the
// caller appends the tail.
func ConvEncode(in []byte) []byte {
	return convEncodeInto(make([]byte, 0, len(in)*2), in)
}

// Puncture removes coded bits from the rate-1/2 stream (pairs A,B per
// input bit) according to the 802.11 puncturing pattern for rate r.
func Puncture(coded []byte, r CodingRate) ([]byte, error) {
	if len(coded)%2 != 0 {
		return nil, fmt.Errorf("wifi: coded stream length %d is odd", len(coded))
	}
	return punctureInto(make([]byte, 0, len(coded)), coded, r)
}

// Depuncture restores a punctured stream to rate-1/2 layout, inserting
// erasure markers where bits were dropped. nInfoBits is the number of
// information bits the stream encodes (including tail).
func Depuncture(punctured []byte, r CodingRate, nInfoBits int) ([]byte, error) {
	pattern := puncturePattern(r)
	if pattern == nil {
		return nil, fmt.Errorf("wifi: unknown coding rate %v", r)
	}
	out := make([]byte, 0, nInfoBits*2)
	pi := 0
	for i := 0; i < nInfoBits; i++ {
		keep := pattern[i%len(pattern)]
		for j := 0; j < 2; j++ {
			if keep[j] {
				if pi >= len(punctured) {
					return nil, fmt.Errorf("wifi: punctured stream too short: need bit %d of %d", pi, len(punctured))
				}
				out = append(out, punctured[pi])
				pi++
			} else {
				out = append(out, erasure)
			}
		}
	}
	return out, nil
}

// NextBit advances the LFSR one step and returns the whitening bit
// x^7 ⊕ x^4 (FreeRider eq. 8's b[k-7] ⊕ b[k-3] feedback).
func (s *Scrambler) NextBit() byte {
	out := ((s.state >> 6) ^ (s.state >> 3)) & 1
	s.state = ((s.state << 1) | out) & 0x7F
	return out
}

// ScramblingSequence returns n whitening bits from the given seed,
// stepping the LFSR per bit.
func ScramblingSequence(seed byte, n int) []byte {
	sc := NewScrambler(seed)
	out := make([]byte, n)
	for i := range out {
		out[i] = sc.NextBit()
	}
	return out
}

// recoverSeedSearch finds the seed whose first 7 LFSR outputs are first7
// by trying all 127, falling back to all ones when none matches.
func recoverSeedSearch(first7 []byte) byte {
	for seed := byte(1); seed < 0x80; seed++ {
		sc := NewScrambler(seed)
		ok := true
		for i := 0; i < 7; i++ {
			if sc.NextBit() != first7[i]&1 {
				ok = false
				break
			}
		}
		if ok {
			return seed
		}
	}
	return 0x7F
}

// refCodedBits is the unfused CodedBits: scramble, tail, ConvEncode,
// Puncture, InterleaveSymbols.
func refCodedBits(psdu []byte, rate Rate, seed byte) ([]byte, error) {
	nBits := NumDataSymbols(len(psdu), rate) * rate.NDBPS
	raw := make([]byte, ServiceBits, nBits)
	raw = append(raw, bits.FromBytes(psdu)...)
	raw = append(raw, make([]byte, nBits-len(raw))...)
	seq := ScramblingSequence(seed, nBits)
	for i := range raw {
		raw[i] ^= seq[i]
	}
	tailStart := ServiceBits + 8*len(psdu)
	for i := 0; i < TailBits; i++ {
		raw[tailStart+i] = 0
	}
	punct, err := Puncture(ConvEncode(raw), rate.Coding)
	if err != nil {
		return nil, err
	}
	return InterleaveSymbols(punct, rate)
}

// refDecodeFrom is the unfused receive chain: the front end of decodeFrom
// (CFO correction, channel estimate, per-symbol equalisation, phase
// tracking, demap), then one pass per bit stage — deinterleaveInto,
// Depuncture, ViterbiDecodeInto, the LFSR seed search and a per-bit
// descramble.
func refDecodeFrom(rx *Receiver, cap *signal.Signal, start int) (*RxPacket, error) {
	s := cap.Samples
	if len(s) < start+PreambleLen+SymbolLen {
		return nil, ErrTruncated
	}
	arena := signal.GetArena()
	defer arena.Release()
	raw := s
	coarse := estimateCFOFromLTF(raw[start+160 : start+320])
	buf := make([]complex128, len(raw))
	sigEnd := start + PreambleLen + SymbolLen
	derotate(buf[start:sigEnd], raw[start:sigEnd], coarse)
	s = buf

	var eq equalizer
	eq.init(estimateChannel(s[start+160:start+320], arena))
	fftBuf := make([]complex128, FFTSize)
	var pts [NumData]complex128
	var pilots [NumPilots]complex128
	sigStart := start + PreambleLen
	if err := disassembleSymbolBuf(s[sigStart:sigStart+SymbolLen], &eq, fftBuf, &pts, &pilots); err != nil {
		return nil, err
	}
	r6 := Rates[6]
	sigBits, err := demapSymbolInto(nil, &pts, r6)
	if err != nil {
		return nil, err
	}
	deinter := make([]byte, r6.NCBPS)
	if err := deinterleaveInto(deinter, sigBits, r6); err != nil {
		return nil, err
	}
	decoded, err := ViterbiDecodeInto(make([]byte, r6.NCBPS/2), deinter)
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
	end := dataStart + nSym*SymbolLen
	residual := refineCFOFromCP(raw[dataStart:], nSym, coarse)
	derotate(s[start:end], raw[start:end], coarse+residual)
	if residual != 0 {
		eq.init(estimateChannel(s[start+160:start+320], arena))
	}

	var tracker phaseTracker
	var demapped, coded []byte
	var pilotPhases []float64
	if rx.CollectPilotPhases {
		pilotPhases = []float64{}
	}
	for i := 0; i < nSym; i++ {
		off := dataStart + i*SymbolLen
		if err := disassembleSymbolBuf(s[off:off+SymbolLen], &eq, fftBuf, &pts, &pilots); err != nil {
			return nil, err
		}
		if rx.CollectPilotPhases {
			pilotPhases = append(pilotPhases, refPilotPhase(pilots, i+1))
		}
		if rx.PilotPhaseTracking {
			correctPhase(&pts, pilots, i+1)
		}
		tracker.correct(&pts, rate.Modulation)
		sym, err := demapSymbolInto(nil, &pts, rate)
		if err != nil {
			return nil, err
		}
		demapped = append(demapped, sym...)
		deint := make([]byte, rate.NCBPS)
		if err := deinterleaveInto(deint, sym, rate); err != nil {
			return nil, err
		}
		coded = append(coded, deint...)
	}

	nInfo := nSym * rate.NDBPS
	depunct, err := Depuncture(coded, rate.Coding, nInfo)
	if err != nil {
		return nil, err
	}
	scrambled, err := ViterbiDecodeInto(make([]byte, nInfo), depunct)
	if err != nil {
		return nil, err
	}
	seq := ScramblingSequence(recoverSeedSearch(scrambled[:7]), nInfo)
	descrambled := make([]byte, nInfo)
	for i := range descrambled {
		descrambled[i] = scrambled[i] ^ seq[i]
	}
	psdu, err := bits.ToBytes(descrambled[ServiceBits : ServiceBits+8*length])
	if err != nil {
		return nil, err
	}
	return &RxPacket{
		PSDU:         psdu,
		RawBits:      descrambled,
		FCSOK:        checkFCS(psdu),
		DemappedBits: demapped,
		PilotPhases:  pilotPhases,
	}, nil
}

// refPilotPhase is the phase of the pilot correlation, summed per pilot.
func refPilotPhase(pilots [NumPilots]complex128, symIdx int) float64 {
	var acc complex128
	for i, pl := range PilotSubcarriers {
		acc += pilots[i] * cmplx.Conj(complex(pl.Polarity*PilotPolarity(symIdx), 0))
	}
	return cmplx.Phase(acc)
}

// refReceive is Receive over refDecodeFrom.
func refReceive(rx *Receiver, cap *signal.Signal) (*RxPacket, error) {
	start, quality := rx.DetectPreamble(cap)
	if start < 0 {
		return nil, ErrNoPacket
	}
	if quality < rx.DetectionThreshold {
		return nil, ErrWeakDetection
	}
	return refDecodeFrom(rx, cap, start)
}
