package wifi

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/signal"
	"repro/internal/simd"
)

// refTransmit is the pre-fusion transmit chain kept as a reference: per
// symbol it interleaves into a scratch buffer, maps through mapSymbolBits
// and assembles the symbol through signal.IFFT (1/N division) and a
// separate scale pass. The fused modulator in TransmitTo must reproduce
// its samples bit for bit, at every rate, length and scrambler seed.
func refTransmit(psdu []byte, rate Rate, scramblerSeed byte) ([]complex128, error) {
	templateOnce.Do(initTemplates)
	nSym := NumDataSymbols(len(psdu), rate)
	out := make([]complex128, PreambleLen+SymbolLen+nSym*SymbolLen)
	copy(out[:PreambleLen], preambleTmpl)
	a := signal.GetArena()
	defer a.Release()
	if err := refSignalSymbolInto(out[PreambleLen:PreambleLen+SymbolLen], rate, len(psdu), a); err != nil {
		return nil, err
	}
	if err := refDataSymbolsInto(out[PreambleLen+SymbolLen:], psdu, rate, scramblerSeed, nSym, a); err != nil {
		return nil, err
	}
	return out, nil
}

// mapSymbolBits maps NCBPS interleaved bits onto the 48 data subcarriers
// of one OFDM symbol, in DataSubcarriers order, one mapPoint call per point:
// the unfused mapper the reference chain and the symbol round-trip test
// run.
func mapSymbolBits(in []byte, r Rate) ([NumData]complex128, error) {
	var out [NumData]complex128
	if len(in) != r.NCBPS {
		return out, fmt.Errorf("wifi: symbol mapper input %d bits, want %d", len(in), r.NCBPS)
	}
	for i := 0; i < NumData; i++ {
		pt, err := mapPoint(in[i*r.NBPSC:(i+1)*r.NBPSC], r.Modulation)
		if err != nil {
			return out, err
		}
		out[i] = pt
	}
	return out, nil
}

// mapPoint converts NBPSC coded bits into one constellation point: the
// per-point mapper the fused modulator's tables are checked against.
func mapPoint(bitsIn []byte, m Modulation) (complex128, error) {
	scaled, perAxis, err := scaledLevelsFor(m)
	if err != nil {
		return 0, err
	}
	want := perAxis
	if m != BPSK {
		want = 2 * perAxis
	}
	if len(bitsIn) != want {
		return 0, fmt.Errorf("wifi: %v wants %d bits, got %d", m, want, len(bitsIn))
	}
	if m == BPSK {
		return complex(scaled[bitsIn[0]&1], 0), nil
	}
	return complex(scaled[bitIndex(bitsIn[:perAxis])], scaled[bitIndex(bitsIn[perAxis:])]), nil
}

// bitIndex folds MSB-first bits into a level-table index.
func bitIndex(bs []byte) int {
	v := 0
	for _, b := range bs {
		v = v<<1 | int(b&1)
	}
	return v
}

func refSignalSymbolInto(dst []complex128, rate Rate, length int, a *signal.Arena) error {
	b := a.Bytes(24)[:0]
	for i := 3; i >= 0; i-- {
		b = append(b, (rate.SignalBits>>uint(i))&1)
	}
	b = append(b, 0)
	for i := 0; i < 12; i++ {
		b = append(b, byte(length>>uint(i))&1)
	}
	parity := byte(0)
	for _, v := range b {
		parity ^= v
	}
	b = append(b, parity)
	b = append(b, 0, 0, 0, 0, 0, 0)

	r6 := Rates[6]
	coded := convEncodeInto(a.Bytes(2 * len(b))[:0], b)
	inter := a.Bytes(r6.NCBPS)
	if err := interleaveInto(inter, coded, r6); err != nil {
		return err
	}
	pts, err := mapSymbolBits(inter, r6)
	if err != nil {
		return err
	}
	return refAssembleSymbolInto(dst, pts, 0, a)
}

func refDataSymbolsInto(dst []complex128, psdu []byte, rate Rate, scramblerSeed byte, nSym int, a *signal.Arena) error {
	nBits := nSym * rate.NDBPS
	raw := a.Bytes(nBits)
	for i, by := range psdu {
		for j := 0; j < 8; j++ {
			raw[ServiceBits+8*i+j] = (by >> uint(j)) & 1
		}
	}
	scrambled := NewScrambler(scramblerSeed).Scramble(raw)
	tailStart := ServiceBits + 8*len(psdu)
	for i := 0; i < TailBits; i++ {
		scrambled[tailStart+i] = 0
	}
	coded := convEncodeInto(a.Bytes(2 * nBits)[:0], scrambled)
	punct, err := punctureInto(a.Bytes(2 * nBits)[:0], coded, rate.Coding)
	if err != nil {
		return err
	}
	inter := a.Bytes(rate.NCBPS)
	for s := 0; s < nSym; s++ {
		if err := interleaveInto(inter, punct[s*rate.NCBPS:(s+1)*rate.NCBPS], rate); err != nil {
			return err
		}
		pts, err := mapSymbolBits(inter, rate)
		if err != nil {
			return err
		}
		if err := refAssembleSymbolInto(dst[s*SymbolLen:(s+1)*SymbolLen], pts, s+1, a); err != nil {
			return err
		}
	}
	return nil
}

func refAssembleSymbolInto(dst []complex128, data [NumData]complex128, symIdx int, a *signal.Arena) error {
	td := a.Complex(FFTSize)
	for i, k := range DataSubcarriers {
		td[binFor(k)] = data[i]
	}
	p := PilotPolarity(symIdx)
	for _, pl := range PilotSubcarriers {
		td[binFor(pl.Index)] = complex(pl.Polarity*p, 0)
	}
	if err := signal.IFFT(td); err != nil {
		return err
	}
	scale := complex(float64(FFTSize)/sqrtNused, 0)
	for i := range td {
		td[i] *= scale
	}
	copy(dst[:CPLen], td[FFTSize-CPLen:])
	copy(dst[CPLen:SymbolLen], td)
	return nil
}

// firstSampleDiff returns the first index at which got and want differ in
// any bit of either component (so signed zeros and NaN payloads count),
// or -1 when they are bitwise identical.
func firstSampleDiff(got, want []complex128) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range got {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			return i
		}
	}
	return -1
}

// checkTransmitFused transmits psdu through TransmitTo into dst and
// through refTransmit, failing on the first bitwise sample difference.
func checkTransmitFused(t *testing.T, dst *signal.Signal, psdu []byte, r Rate, seed byte) {
	t.Helper()
	tx := &Transmitter{ScramblerSeed: seed, FixedSeed: true}
	if err := tx.TransmitTo(dst, psdu, r); err != nil {
		t.Fatal(err)
	}
	want, err := refTransmit(psdu, r, seed)
	if err != nil {
		t.Fatal(err)
	}
	if i := firstSampleDiff(dst.Samples, want); i >= 0 {
		if len(dst.Samples) != len(want) {
			t.Fatalf("%d Mbps, %d B, seed %d: %d samples, reference %d", r.Mbps, len(psdu), seed, len(dst.Samples), len(want))
		}
		t.Fatalf("%d Mbps, %d B, seed %d: sample %d = %v, reference %v", r.Mbps, len(psdu), seed, i, dst.Samples[i], want[i])
	}
}

// TestTransmitFusedMatchesReference is the exactness harness of the fused
// modulator: every rate, PSDU lengths at both ends of the legal range and
// in between, and every scrambler seed must reproduce the reference chain
// sample for sample, in each available FFT dispatch mode. Under the race
// detector (~20× slower, and with nothing to find in this single-goroutine
// loop) every ninth seed runs; `make test` and `make test-noasm` run all.
func TestTransmitFusedMatchesReference(t *testing.T) {
	seedStep := byte(1)
	if raceEnabled {
		seedStep = 9
	}
	mbps := sortedMbps()
	rng := rand.New(rand.NewSource(13))
	psdus := make([][]byte, 0, 4)
	for _, n := range []int{1, 2, 1500, 4095} {
		p := make([]byte, n)
		rng.Read(p)
		psdus = append(psdus, p)
	}
	prev := simd.Enabled()
	defer simd.SetEnabled(prev)
	modes := []bool{false}
	if simd.HWMode() != "" {
		modes = append(modes, true)
	}
	for _, on := range modes {
		simd.SetEnabled(on)
		t.Run("dispatch="+simd.Mode(), func(t *testing.T) {
			dst := signal.New(SampleRate, 0)
			for _, m := range mbps {
				for _, psdu := range psdus {
					for seed := byte(1); seed <= 127; seed += seedStep {
						checkTransmitFused(t, dst, psdu, Rates[m], seed)
					}
				}
			}
		})
	}
}

// FuzzTransmitFused drives random PSDUs, rates and scrambler seeds through
// the fused modulator and the reference chain, demanding bitwise equal
// samples. The FFT runs in the ambient dispatch mode, so `make fuzz-simd`
// fuzzes the asm butterflies underneath the fused loop.
func FuzzTransmitFused(f *testing.F) {
	f.Add([]byte{0x00}, uint8(0), uint8(1))
	f.Add([]byte("freerider"), uint8(5), uint8(0x5D))
	f.Add(bytes.Repeat([]byte{0xFF}, 300), uint8(7), uint8(127))
	mbps := []int{6, 9, 12, 18, 24, 36, 48, 54}
	f.Fuzz(func(t *testing.T, psdu []byte, rateIdx, seed uint8) {
		if len(psdu) < 1 || len(psdu) > 4095 {
			t.Skip("PSDU length outside [1, 4095]")
		}
		s := seed & 0x7F
		if s == 0 {
			s = 1
		}
		checkTransmitFused(t, signal.New(SampleRate, 0), psdu, Rates[mbps[int(rateIdx)%len(mbps)]], s)
	})
}

// TestSymbolIntoNonFinite feeds data bins holding Inf, NaN and values
// that overflow inside the transform through symbolInto and the
// reference chain (signal.IFFT, then the scale) in each dispatch mode,
// so the symbol tail sees samples with one or two infinite parts, NaN
// parts, and quotients whose parts are both NaN (where the runtime
// division takes its C99 fallback and the kernel pass reports the
// sample). Samples compare bit for bit, NaN as a class.
func TestSymbolIntoNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	specials := []complex128{
		complex(math.Inf(1), 0), complex(0, math.Inf(-1)), complex(math.Inf(1), math.Inf(1)),
		complex(math.NaN(), 0), complex(math.Copysign(0, -1), 1e-310),
		complex(math.MaxFloat64, math.MaxFloat64), complex(-math.MaxFloat64, math.MaxFloat64),
	}
	sameFloat := func(a, b float64) bool {
		return math.IsNaN(a) && math.IsNaN(b) || math.Float64bits(a) == math.Float64bits(b)
	}
	prev := simd.Enabled()
	defer simd.SetEnabled(prev)
	a := signal.GetArena()
	defer a.Release()
	for trial := 0; trial < 40; trial++ {
		var data [NumData]complex128
		for i := range data {
			data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		for k := 1 + trial%3; k > 0; k-- {
			data[rng.Intn(NumData)] = specials[rng.Intn(len(specials))]
		}
		want := make([]complex128, SymbolLen)
		if err := refAssembleSymbolInto(want, data, trial, a); err != nil {
			t.Fatal(err)
		}
		for _, on := range []bool{false, true} {
			simd.SetEnabled(on)
			td := make([]complex128, FFTSize)
			for i, k := range DataSubcarriers {
				td[binFor(k)] = data[i]
			}
			got := make([]complex128, SymbolLen)
			if err := symbolInto(got, td, trial); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if !sameFloat(real(got[i]), real(want[i])) || !sameFloat(imag(got[i]), imag(want[i])) {
					t.Fatalf("trial %d, dispatch %s: sample %d = %v, reference %v", trial, simd.Mode(), i, got[i], want[i])
				}
			}
		}
	}
}
