package fec

import "fmt"

// Config selects the Reed-Solomon code applied to each tag payload chunk.
// N and K name the reference code dimensions — the (255, 223) default is
// the classic deep-space code — and only their ratio matters: LayoutFor
// shortens the code to the symbols one excitation packet carries, keeping
// the parity share (N−K)/N. Interleave spreads the chunk's symbols
// round-robin across that many independent codewords so a burst of
// adjacent corrupted windows lands on different codewords; 0 means 1.
type Config struct {
	N          int `json:"n"`
	K          int `json:"k"`
	Interleave int `json:"interleave,omitempty"`
}

// DefaultConfig is the interleaved shortened RS(255, 223)-style code used
// when a caller enables coding without picking dimensions.
func DefaultConfig() Config { return Config{N: 255, K: 223, Interleave: 1} }

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.N == 0 && c.K == 0 {
		c.N, c.K = d.N, d.K
	}
	if c.Interleave == 0 {
		c.Interleave = d.Interleave
	}
	return c
}

// Validate rejects configs that cannot produce a working code.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.N < 3 || c.N > maxN {
		return fmt.Errorf("fec: n must be in [3, %d], got %d", maxN, c.N)
	}
	if c.K <= 0 || c.K >= c.N {
		return fmt.Errorf("fec: k must be in [1, n-1], got k=%d n=%d", c.K, c.N)
	}
	if c.N-c.K > maxParity {
		return fmt.Errorf("fec: n-k must be <= %d, got %d", maxParity, c.N-c.K)
	}
	if c.Interleave < 0 || c.Interleave > 32 {
		return fmt.Errorf("fec: interleave must be in [0, 32], got %d", c.Interleave)
	}
	return nil
}

// Layout is the concrete shortened code for one chunk capacity: how the
// chunk's symbols split into interleaved codewords and how many of them
// are parity. It is a pure function of (capacity, Config) — both sides of
// the link derive it independently.
type Layout struct {
	Config    Config // normalized (defaults filled)
	TotalSyms int    // symbols the chunk carries (capacityBits/8)
	Depth     int    // interleaved codewords
	CWSyms    []int  // per-codeword total symbols
	CWParity  []int  // per-codeword parity symbols
	dataSyms  int
}

// LayoutFor shortens cfg to a chunk of capacityBits tag bits. Symbols are
// 8 tag bits each; a trailing partial byte is left uncoded (unused).
func LayoutFor(capacityBits int, cfg Config) (Layout, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Layout{}, err
	}
	total := capacityBits / 8
	depth := cfg.Interleave
	if depth > total {
		depth = total
	}
	if total == 0 || depth == 0 {
		return Layout{}, fmt.Errorf("fec: capacity %d bits holds no full symbol", capacityBits)
	}
	lay := Layout{
		Config:    cfg,
		TotalSyms: total,
		Depth:     depth,
		CWSyms:    make([]int, depth),
		CWParity:  make([]int, depth),
	}
	for c := 0; c < depth; c++ {
		syms := total / depth
		if c < total%depth {
			syms++
		}
		// Scale the reference parity share to the shortened length,
		// rounding to the nearest even count (t must be whole) with a
		// floor of 2 so every codeword can correct at least one symbol.
		parity := (2*syms*(cfg.N-cfg.K) + cfg.N) / (2 * cfg.N)
		parity = (parity + 1) &^ 1
		if parity < 2 {
			parity = 2
		}
		if syms <= parity {
			return Layout{}, fmt.Errorf("fec: chunk too small for code: codeword %d has %d symbols, %d parity", c, syms, parity)
		}
		lay.CWSyms[c] = syms
		lay.CWParity[c] = parity
		lay.dataSyms += syms - parity
	}
	return lay, nil
}

// DataBits is the number of payload bits the coded chunk carries.
func (l Layout) DataBits() int { return l.dataSyms * 8 }

// CodedBits is the number of transmitted tag bits the layout occupies
// (always a multiple of 8; tail bits beyond it stay uncoded filler).
func (l Layout) CodedBits() int { return l.TotalSyms * 8 }

// cwFor maps a chunk symbol position to (codeword, within-codeword index).
// Round-robin: position s belongs to codeword s % depth.
func (l Layout) cwFor(s int) (cw, idx int) { return s % l.Depth, s / l.Depth }

// packSymbols packs bits (0/1 bytes, LSB-first within each symbol, the
// same order bits.FromBytes uses) into out; bits past the end of bits
// pack as 0.
func packSymbols(bits []byte, out []byte) {
	for i := range out {
		var b byte
		for j := 0; j < 8 && i*8+j < len(bits); j++ {
			b |= (bits[i*8+j] & 1) << uint(j)
		}
		out[i] = b
	}
}

// unpackSymbols expands syms into out (0/1 bytes, LSB-first).
func unpackSymbols(syms []byte, out []byte) {
	for i, s := range syms {
		for j := 0; j < 8; j++ {
			out[i*8+j] = (s >> uint(j)) & 1
		}
	}
}

// EncodeBits encodes data (0/1 tag bits, at most l.DataBits() of them)
// into a coded chunk of l.CodedBits() 0/1 bits: each codeword's data
// symbols followed by its parity, the codewords interleaved symbol-by-
// symbol across the chunk. Short data — a transfer's final partial chunk —
// is zero-padded to l.DataBits(); the receiver drops the pad.
func (l Layout) EncodeBits(data []byte) ([]byte, error) {
	if len(data) > l.DataBits() {
		return nil, fmt.Errorf("fec: encode takes at most %d data bits, got %d", l.DataBits(), len(data))
	}
	dataSyms := make([]byte, l.dataSyms)
	packSymbols(data, dataSyms)

	// One rule binds both directions: walking the chunk positions in
	// order, a position whose within-codeword index falls in the codeword's
	// data region takes the next data symbol. Decode recovers data symbols
	// with the identical walk.
	coded := make([]byte, l.TotalSyms)
	cwData := make([][]byte, l.Depth)
	for c := range cwData {
		cwData[c] = make([]byte, 0, l.CWSyms[c]-l.CWParity[c])
	}
	di := 0
	for s := 0; s < l.TotalSyms; s++ {
		cw, idx := l.cwFor(s)
		if idx < l.CWSyms[cw]-l.CWParity[cw] {
			coded[s] = dataSyms[di]
			cwData[cw] = append(cwData[cw], dataSyms[di])
			di++
		}
	}
	// Parity per codeword, scattered into its tail positions in order.
	for c := 0; c < l.Depth; c++ {
		parity := make([]byte, l.CWParity[c])
		rsEncode(cwData[c], parity)
		for s := 0; s < l.TotalSyms; s++ {
			if cw, idx := l.cwFor(s); cw == c && idx >= l.CWSyms[c]-l.CWParity[c] {
				coded[s] = parity[idx-(l.CWSyms[c]-l.CWParity[c])]
			}
		}
	}

	out := make([]byte, l.CodedBits())
	unpackSymbols(coded, out)
	return out, nil
}

// DecodeBits RS-decodes a received coded chunk (0/1 bits, at least
// l.CodedBits() of them; extra trailing bits are ignored). It returns the
// recovered data bits, the total corrected symbol count, and whether every
// codeword decoded to a valid RS codeword. On a codeword failure its raw
// hard-decision data symbols are passed through, so callers can still
// compare against ground truth or retransmit.
func (l Layout) DecodeBits(coded []byte) (data []byte, corrected int, ok bool) {
	if len(coded) < l.CodedBits() {
		return nil, 0, false
	}
	syms := make([]byte, l.TotalSyms)
	packSymbols(coded[:l.CodedBits()], syms)

	// Deinterleave.
	cws := make([][]byte, l.Depth)
	for c := range cws {
		cws[c] = make([]byte, 0, l.CWSyms[c])
	}
	for s := 0; s < l.TotalSyms; s++ {
		cw, _ := l.cwFor(s)
		cws[cw] = append(cws[cw], syms[s])
	}

	ok = true
	for c := 0; c < l.Depth; c++ {
		n, good := rsDecode(cws[c], l.CWParity[c])
		corrected += n
		if !good {
			ok = false
		}
	}

	// Recover data symbols with the same chunk-order walk EncodeBits used.
	ordered := make([]byte, 0, l.dataSyms)
	for s := 0; s < l.TotalSyms; s++ {
		cw, idx := l.cwFor(s)
		if idx < l.CWSyms[cw]-l.CWParity[cw] {
			ordered = append(ordered, cws[cw][idx])
		}
	}

	data = make([]byte, l.DataBits())
	unpackSymbols(ordered, data)
	return data, corrected, ok
}
