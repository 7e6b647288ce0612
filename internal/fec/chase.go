package fec

// Decode is one RS decode of a coded chunk (see Layout.DecodeBits): the
// recovered data bits, or the raw hard-decision data on failure; the
// symbols RS corrected; and whether every codeword decoded.
type Decode struct {
	Data      []byte
	Corrected int
	OK        bool
}

// Chase is one chunk's chase-combining receiver: it accumulates the per-bit
// soft decisions of successive transmissions of the chunk and, after each
// received copy, RS-decodes both the combined evidence and the copy alone.
// The caller's rule picks between the two — a type-II HARQ ladder needs
// both, because a misaligned earlier copy fills the accumulator with
// confident wrong votes that a clean retry must be able to overrule.
//
// Soft decisions follow decoder.SoftScale's convention: positive means bit
// 0, negative bit 1, |s| the margin. Accumulation is plain int32 addition
// in copy order — a deterministic pure fold, so combined decodes stay
// bit-identical between Run and RunParallel as long as copies are fed in
// the same order. Not safe for concurrent use; each in-flight chunk owns
// its own Chase.
type Chase struct {
	lay    Layout
	acc    []int32
	sliced []byte
	copies int
}

// Reset starts a chunk coded under lay with an empty accumulator. It must
// be called between chunks and whenever the transmission scheme changes
// (e.g. the quaternary→binary fallback re-plans the layout, so soft values
// from the old scheme no longer align bit for bit).
func (c *Chase) Reset(lay Layout) {
	n := lay.CodedBits()
	if cap(c.acc) < n {
		c.acc = make([]int32, n)
		c.sliced = make([]byte, n)
	}
	c.lay, c.acc, c.sliced, c.copies = lay, c.acc[:n], c.sliced[:n], 0
	clear(c.acc)
}

// Add folds one received copy — its hard decisions and their soft values —
// into the chunk. It returns the RS decode of the combined soft evidence,
// re-sliced, and of the copy's hard decisions alone. A copy too short to
// cover the coded region (a lost packet, or too few tag windows) adds
// nothing and reports ok false. Ties (an exactly cancelled accumulator)
// slice to 0, the hard-decision convention that only positive mismatch
// evidence flips a bit, so the first copy's combined decode is its hard
// decode.
func (c *Chase) Add(hard []byte, soft []int16) (combined, alone Decode, ok bool) {
	n := len(c.acc)
	if len(hard) < n || len(soft) < n {
		return Decode{}, Decode{}, false
	}
	for i, s := range soft[:n] {
		c.acc[i] += int32(s)
		c.sliced[i] = 0
		if c.acc[i] < 0 {
			c.sliced[i] = 1
		}
	}
	c.copies++
	return c.lay.decode(c.sliced), c.lay.decode(hard), true
}

// Copies is the number of copies combined since Reset.
func (c *Chase) Copies() int { return c.copies }

func (l Layout) decode(coded []byte) Decode {
	data, corrected, ok := l.DecodeBits(coded)
	return Decode{Data: data, Corrected: corrected, OK: ok}
}
