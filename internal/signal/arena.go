package signal

// Arena is a scratch-buffer allocator for the per-packet DSP kernels.
// Buffers are checked out with Complex/Bytes/Int16 (or their Uninit
// variants) and all returned at once by Release; the arena itself cycles
// through a bounded FreeList (GC-stable, unlike a sync.Pool — see pool.go),
// so a steady-state packet path performs a deterministic zero heap
// allocations once the list is warm.
//
// Ownership rules (see DESIGN.md §8): an arena serves one goroutine at a
// time; every buffer obtained from it is valid only until Release and must
// never be stored in a result that outlives the call — copy into a fresh
// allocation for anything that escapes. Release returns every outstanding
// buffer, so callers never release individual buffers.
type Arena struct {
	cFree, cUsed [][]complex128
	fFree, fUsed [][]float64
	bFree, bUsed [][]byte
	sFree, sUsed [][]int16
	uFree, uUsed [][]uint64
}

// arenaPool retains up to one arena per plausible concurrent packet
// worker; each arena's cached buffers are sized by the largest packet it
// has served, so the pinned memory is bounded by Cap × that footprint.
var arenaPool = FreeList[*Arena]{New: func() *Arena { return new(Arena) }, Cap: 32}

// GetArena checks an arena out of the pool. Pair with Release, typically
// via defer.
func GetArena() *Arena { return arenaPool.Get() }

// Release returns every buffer handed out since checkout and puts the
// arena back into the pool. Using any previously returned buffer after
// Release is a data race with the arena's next owner.
func (a *Arena) Release() {
	a.cFree = append(a.cFree, a.cUsed...)
	a.fFree = append(a.fFree, a.fUsed...)
	a.bFree = append(a.bFree, a.bUsed...)
	a.sFree = append(a.sFree, a.sUsed...)
	a.uFree = append(a.uFree, a.uUsed...)
	a.cUsed = a.cUsed[:0]
	a.fUsed = a.fUsed[:0]
	a.bUsed = a.bUsed[:0]
	a.sUsed = a.sUsed[:0]
	a.uUsed = a.uUsed[:0]
	arenaPool.Put(a)
}

// Complex returns a zeroed scratch slice of n complex128 values.
func (a *Arena) Complex(n int) []complex128 {
	b := a.ComplexUninit(n)
	for j := range b {
		b[j] = 0
	}
	return b
}

// ComplexUninit returns a scratch slice of n complex128 values whose
// contents are unspecified (recycled buffers keep their previous garbage).
// For large per-packet buffers the zeroing in Complex is a measurable
// memclr; callers that overwrite every element they later read — or never
// read some region at all — use this variant. Anything else must take the
// zeroed Complex.
func (a *Arena) ComplexUninit(n int) []complex128 {
	for i, b := range a.cFree {
		if cap(b) >= n {
			last := len(a.cFree) - 1
			a.cFree[i] = a.cFree[last]
			a.cFree = a.cFree[:last]
			b = b[:n]
			a.cUsed = append(a.cUsed, b)
			return b
		}
	}
	b := make([]complex128, n)
	a.cUsed = append(a.cUsed, b)
	return b
}

// FloatUninit returns a scratch slice of n float64 values whose contents
// are unspecified, for callers that assign every element before any read
// (the matched-filter screen's prefix sums); there is no zeroed variant.
func (a *Arena) FloatUninit(n int) []float64 {
	for i, b := range a.fFree {
		if cap(b) >= n {
			last := len(a.fFree) - 1
			a.fFree[i] = a.fFree[last]
			a.fFree = a.fFree[:last]
			b = b[:n]
			a.fUsed = append(a.fUsed, b)
			return b
		}
	}
	b := make([]float64, n)
	a.fUsed = append(a.fUsed, b)
	return b
}

// BytesUninit returns a scratch slice of n bytes whose contents are
// unspecified, for callers that assign every element before any read (the
// deinterleaved coded stream, the Viterbi output bits). Anything else must
// take the zeroed Bytes.
func (a *Arena) BytesUninit(n int) []byte {
	for i, b := range a.bFree {
		if cap(b) >= n {
			last := len(a.bFree) - 1
			a.bFree[i] = a.bFree[last]
			a.bFree = a.bFree[:last]
			b = b[:n]
			a.bUsed = append(a.bUsed, b)
			return b
		}
	}
	b := make([]byte, n)
	a.bUsed = append(a.bUsed, b)
	return b
}

// Bytes returns a zeroed scratch slice of n bytes.
func (a *Arena) Bytes(n int) []byte {
	for i, b := range a.bFree {
		if cap(b) >= n {
			last := len(a.bFree) - 1
			a.bFree[i] = a.bFree[last]
			a.bFree = a.bFree[:last]
			b = b[:n]
			for j := range b {
				b[j] = 0
			}
			a.bUsed = append(a.bUsed, b)
			return b
		}
	}
	b := make([]byte, n)
	a.bUsed = append(a.bUsed, b)
	return b
}

// Int16Uninit returns a scratch slice of n int16 values whose contents are
// unspecified, for callers that assign every element before any read (the
// Viterbi gain stream). Anything else must take the zeroed Int16.
func (a *Arena) Int16Uninit(n int) []int16 {
	for i, b := range a.sFree {
		if cap(b) >= n {
			last := len(a.sFree) - 1
			a.sFree[i] = a.sFree[last]
			a.sFree = a.sFree[:last]
			b = b[:n]
			a.sUsed = append(a.sUsed, b)
			return b
		}
	}
	b := make([]int16, n)
	a.sUsed = append(a.sUsed, b)
	return b
}

// Uint64Uninit returns a scratch slice of n uint64 values whose contents
// are unspecified, for callers that assign every element before any read
// (the Viterbi traceback words); there is no zeroed variant.
func (a *Arena) Uint64Uninit(n int) []uint64 {
	for i, b := range a.uFree {
		if cap(b) >= n {
			last := len(a.uFree) - 1
			a.uFree[i] = a.uFree[last]
			a.uFree = a.uFree[:last]
			b = b[:n]
			a.uUsed = append(a.uUsed, b)
			return b
		}
	}
	b := make([]uint64, n)
	a.uUsed = append(a.uUsed, b)
	return b
}

// Int16 returns a zeroed scratch slice of n int16 values.
func (a *Arena) Int16(n int) []int16 {
	for i, b := range a.sFree {
		if cap(b) >= n {
			last := len(a.sFree) - 1
			a.sFree[i] = a.sFree[last]
			a.sFree = a.sFree[:last]
			b = b[:n]
			for j := range b {
				b[j] = 0
			}
			a.sUsed = append(a.sUsed, b)
			return b
		}
	}
	b := make([]int16, n)
	a.sUsed = append(a.sUsed, b)
	return b
}
