package wifi

import (
	"fmt"

	"repro/internal/signal"
)

// Transmitter synthesises 802.11a/g PPDUs at complex baseband.
type Transmitter struct {
	// ScramblerSeed is the 7-bit initial scrambler state; commodity cards
	// rotate it per packet, and so does the transmitter unless Fixed is set.
	ScramblerSeed byte
	// FixedSeed stops the per-packet scrambler seed rotation (useful in
	// tests that need bit-exact reproducibility across calls).
	FixedSeed bool
}

// NewTransmitter returns a transmitter with a conventional nonzero seed.
func NewTransmitter() *Transmitter {
	return &Transmitter{ScramblerSeed: 0x5D}
}

// Transmit builds the complete baseband PPDU (preamble + SIGNAL + DATA) for
// the PSDU at the given rate. The returned signal has unit mean power over
// the data portion; the channel model applies the TX power.
func (t *Transmitter) Transmit(psdu []byte, rate Rate) (*signal.Signal, error) {
	out := signal.New(SampleRate, 0)
	if err := t.TransmitTo(out, psdu, rate); err != nil {
		return nil, err
	}
	return out, nil
}

// TransmitTo synthesises the PPDU into dst, reusing its sample capacity
// when large enough; all intermediate bit streams and symbol buffers come
// from a scratch arena, so a warm caller allocates at most the output
// growth. dst.Rate is set to the 802.11 sample rate.
func (t *Transmitter) TransmitTo(dst *signal.Signal, psdu []byte, rate Rate) error {
	if len(psdu) < 1 || len(psdu) > 4095 {
		return fmt.Errorf("wifi: PSDU length %d outside [1, 4095]", len(psdu))
	}
	templateOnce.Do(initTemplates)
	nSym := NumDataSymbols(len(psdu), rate)
	total := PreambleLen + SymbolLen + nSym*SymbolLen
	dst.Rate = SampleRate
	if cap(dst.Samples) >= total {
		dst.Samples = dst.Samples[:total]
	} else {
		dst.Samples = make([]complex128, total)
	}
	copy(dst.Samples[:PreambleLen], preambleTmpl)

	m, err := mapperFor(rate)
	if err != nil {
		return err
	}
	a := signal.GetArena()
	defer a.Release()
	// One frequency-domain buffer serves every symbol of the packet:
	// symbolInto rewrites all 64 bins before each transform.
	td := a.ComplexUninit(FFTSize)
	if err := signalSymbolInto(dst.Samples[PreambleLen:PreambleLen+SymbolLen], rate, len(psdu), td, a); err != nil {
		return err
	}
	if err := t.dataSymbolsInto(dst.Samples[PreambleLen+SymbolLen:], psdu, rate, m, nSym, td, a); err != nil {
		return err
	}

	t.AdvanceScramblerSeed()
	return nil
}

// AdvanceScramblerSeed applies the per-packet scrambler seed rotation that
// Transmit performs after synthesising a PPDU. Callers that replay a cached
// waveform instead of re-synthesising it use this to keep the transmitter's
// seed sequence identical to the uncached path. No-op when FixedSeed is set.
func (t *Transmitter) AdvanceScramblerSeed() {
	if t.FixedSeed {
		return
	}
	t.ScramblerSeed = (t.ScramblerSeed + 1) & 0x7F
	if t.ScramblerSeed == 0 {
		t.ScramblerSeed = 1
	}
}

// NumDataSymbols returns how many OFDM data symbols a PSDU of n bytes
// occupies at the given rate.
func NumDataSymbols(n int, rate Rate) int {
	totalBits := ServiceBits + 8*n + TailBits
	return (totalBits + rate.NDBPS - 1) / rate.NDBPS
}

// PacketDuration returns the airtime in seconds of a PSDU of n bytes.
func PacketDuration(n int, rate Rate) float64 {
	syms := SignalSymbols + NumDataSymbols(n, rate)
	return float64(PreambleLen)/SampleRate + float64(syms)*SymbolTime
}

// CodedBits reconstructs the interleaved coded bit stream (what the
// constellation mapper consumed, NCBPS bits per data symbol) for a PSDU
// transmitted with the given scrambler seed. Receiver 1 can rebuild this
// from its decoded packet, which is how the quaternary (eq. 5) backscatter
// decoder obtains its reference stream. It runs the transmitter's coding
// pass and interleaves through the fused mapper's table.
func CodedBits(psdu []byte, rate Rate, scramblerSeed byte) ([]byte, error) {
	m, err := mapperFor(rate)
	if err != nil {
		return nil, err
	}
	a := signal.GetArena()
	defer a.Release()
	punct, err := codeDataField(psdu, rate, scramblerSeed, a)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(punct))
	for off := 0; off < len(out); off += rate.NCBPS {
		sym := punct[off : off+rate.NCBPS]
		for j, k := range m.src {
			out[off+j] = sym[k]
		}
	}
	return out, nil
}

// codeDataField runs the DATA field's bit chain up to the interleaver:
// SERVICE + PSDU + tail + pad, scrambled from seed, tail re-zeroed,
// convolutionally encoded and punctured. The result (NCBPS bits per data
// symbol, in encoder order) lives on a.
func codeDataField(psdu []byte, rate Rate, seed byte, a *signal.Arena) ([]byte, error) {
	nBits := NumDataSymbols(len(psdu), rate) * rate.NDBPS
	raw := a.Bytes(nBits) // zeroed: SERVICE, tail and pad stay 0
	for i, by := range psdu {
		for j := 0; j < 8; j++ {
			raw[ServiceBits+8*i+j] = (by >> uint(j)) & 1
		}
	}
	scrambled := NewScrambler(seed).Scramble(raw)
	// Force the 6 tail bits (immediately after the PSDU) back to zero so the
	// convolutional encoder is flushed to the zero state (§17.3.5.3).
	tailStart := ServiceBits + 8*len(psdu)
	for i := 0; i < TailBits; i++ {
		scrambled[tailStart+i] = 0
	}
	coded := convEncodeInto(a.Bytes(2 * nBits)[:0], scrambled)
	if rate.Coding == Rate1_2 { // rate 1/2 puncturing is the identity
		return coded, nil
	}
	return punctureInto(a.Bytes(2 * nBits)[:0], coded, rate.Coding)
}

// signalSymbolInto encodes the 24-bit SIGNAL field (always BPSK rate 1/2,
// never scrambled) into dst (SymbolLen samples), using td as the
// frequency-domain scratch.
func signalSymbolInto(dst []complex128, rate Rate, length int, td []complex128, a *signal.Arena) error {
	b := a.Bytes(24)[:0]
	for i := 3; i >= 0; i-- { // RATE bits transmitted b3 first
		b = append(b, (rate.SignalBits>>uint(i))&1)
	}
	b = append(b, 0) // reserved
	for i := 0; i < 12; i++ {
		b = append(b, byte(length>>uint(i))&1) // LENGTH LSB first
	}
	parity := byte(0)
	for _, v := range b {
		parity ^= v
	}
	b = append(b, parity)
	b = append(b, 0, 0, 0, 0, 0, 0) // tail

	coded := convEncodeInto(a.Bytes(2 * len(b))[:0], b)
	mappers[BPSK].fill(td, coded)
	return symbolInto(dst, td, 0)
}

// dataSymbolsInto encodes SERVICE + PSDU + tail + pad into dst
// (nSym·SymbolLen samples), mapping each symbol's punctured bits with m
// into the frequency-domain scratch td.
func (t *Transmitter) dataSymbolsInto(dst []complex128, psdu []byte, rate Rate, m *mapper, nSym int, td []complex128, a *signal.Arena) error {
	punct, err := codeDataField(psdu, rate, t.ScramblerSeed, a)
	if err != nil {
		return err
	}
	for s := 0; s < nSym; s++ {
		m.fill(td, punct[s*rate.NCBPS:(s+1)*rate.NCBPS])
		// Pilot index 0 is SIGNAL.
		if err := symbolInto(dst[s*SymbolLen:(s+1)*SymbolLen], td, s+1); err != nil {
			return err
		}
	}
	return nil
}

// mapper is one constellation's fused interleave-and-map stage: it reads a
// symbol's NCBPS punctured bits in encoder order and writes the 48 data
// subcarrier points straight into their FFT bins, with no interleaved
// copy and no per-point call. src folds the §17.3.5.7 permutation into
// the mapper's bit order: bit b (MSB first, I axis then Q) of data
// subcarrier i is in[src[i·NBPSC+b]], where the interleaver would have
// put it. levels are the kmod-scaled per-axis PAM levels that
// tx_ref_test.go's per-point mapPoint indexes, so every point is the
// exact value mapPoint produces from the interleaved bits (the unfused
// chain there checks this sample for sample).
type mapper struct {
	src    []uint16
	levels []float64
	nbpsc  int // 1 for BPSK (no Q axis), else two axes of nbpsc/2 bits
}

// mappers holds the fused mapper of each standard constellation, indexed
// by Modulation and built at package init.
var mappers = buildMappers()

func buildMappers() (t [QAM64 + 1]mapper) {
	for mod, nbpsc := range [...]int{BPSK: 1, QPSK: 2, QAM16: 4, QAM64: 6} {
		levels, _, _ := scaledLevelsFor(Modulation(mod))
		perm := computePerm(NumData*nbpsc, nbpsc)
		src := make([]uint16, len(perm))
		for k, j := range perm {
			src[j] = uint16(k)
		}
		t[mod] = mapper{src: src, levels: levels, nbpsc: nbpsc}
	}
	return t
}

// mapperFor returns the fused mapper for a rate, rejecting the shapes the
// unfused interleave-and-map chain would reject: an unknown modulation, or NBPSC and
// NCBPS that do not match the constellation.
func mapperFor(r Rate) (*mapper, error) {
	if r.Modulation < BPSK || r.Modulation > QAM64 {
		return nil, fmt.Errorf("wifi: unknown modulation %v", r.Modulation)
	}
	m := &mappers[r.Modulation]
	if r.NBPSC != m.nbpsc || r.NCBPS != NumData*m.nbpsc {
		return nil, fmt.Errorf("wifi: %v rate with NBPSC=%d, NCBPS=%d: want %d, %d", r.Modulation, r.NBPSC, r.NCBPS, m.nbpsc, NumData*m.nbpsc)
	}
	return m, nil
}

// fill maps one symbol's punctured bits (len NCBPS, values 0/1) onto the
// data bins of td.
func (m *mapper) fill(td []complex128, in []byte) {
	td = td[:FFTSize]
	if m.nbpsc == 1 {
		src := m.src[:NumData]
		for i, bin := range dataBins {
			td[bin] = complex(m.levels[in[src[i]]&1], 0)
		}
		return
	}
	p := m.nbpsc / 2
	src := m.src[:NumData*m.nbpsc]
	for i, bin := range dataBins {
		s := src[m.nbpsc*i : m.nbpsc*(i+1)]
		re, im := 0, 0
		for b := 0; b < p; b++ {
			re = re<<1 | int(in[s[b]]&1)
			im = im<<1 | int(in[s[p+b]]&1)
		}
		td[bin] = complex(m.levels[re], m.levels[im])
	}
}
