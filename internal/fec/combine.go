package fec

// SoftScale is the nominal magnitude of a full-confidence soft decision.
// Decoder soft outputs are normalized margins in [-SoftScale, SoftScale]:
// positive means bit 0, negative means bit 1, and |s| grows with the
// decision margin. A hard decision with zero margin is emitted as ±1 (never
// 0) so a single attempt sliced through the combiner is bit-identical to
// the hard decision it came from.
const SoftScale = 1024

// Combiner chase-combines the per-bit soft decisions of successive
// transmissions of the same chunk. Accumulation is plain int32 addition in
// attempt order — a deterministic pure fold, so combined decodes stay
// bit-identical between Run and RunParallel as long as attempts are fed in
// the same order. Not safe for concurrent use; each in-flight chunk owns
// its own Combiner.
type Combiner struct {
	acc []int32
	n   int
}

// Reset clears the accumulator for a chunk of the given bit length.
// It must be called between chunks and whenever the transmission scheme
// changes (e.g. quaternary→binary fallback re-plans the layout, so soft
// values from the old scheme no longer align bit-for-bit).
func (c *Combiner) Reset(bits int) {
	if cap(c.acc) < bits {
		c.acc = make([]int32, bits)
	}
	c.acc = c.acc[:bits]
	for i := range c.acc {
		c.acc[i] = 0
	}
	c.n = 0
}

// Add accumulates one attempt's soft decisions. len(soft) must equal the
// Reset length.
func (c *Combiner) Add(soft []int16) {
	if len(soft) != len(c.acc) {
		panic("fec: combiner length mismatch")
	}
	for i, s := range soft {
		c.acc[i] += int32(s)
	}
	c.n++
}

// Attempts is the number of soft vectors accumulated since Reset.
func (c *Combiner) Attempts() int { return c.n }

// Slice re-slices the combined soft values to hard bits in dst (0/1
// bytes). Ties (an exactly cancelled accumulator) slice to 0, matching the
// hard-decision convention that only positive mismatch evidence flips a
// bit. dst must have the Reset length.
func (c *Combiner) Slice(dst []byte) {
	if len(dst) != len(c.acc) {
		panic("fec: combiner length mismatch")
	}
	for i, a := range c.acc {
		if a < 0 {
			dst[i] = 1
		} else {
			dst[i] = 0
		}
	}
}
