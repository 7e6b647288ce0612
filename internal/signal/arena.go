package signal

// Arena is a scratch-buffer allocator for the per-packet DSP kernels.
// Buffers are checked out with Complex/Bytes or an Uninit variant (the
// only kind for float64, int16 and uint64) and all returned at once by
// Release; the arena itself cycles through a bounded FreeList (GC-stable,
// unlike a sync.Pool — see pool.go), so a steady-state packet path
// performs a deterministic zero heap allocations once the list is warm.
//
// Ownership rules (see DESIGN.md §8): an arena serves one goroutine at a
// time; every buffer obtained from it is valid only until Release and must
// never be stored in a result that outlives the call — copy into a fresh
// allocation for anything that escapes. Release returns every outstanding
// buffer, so callers never release individual buffers.
type Arena struct {
	c scratch[complex128]
	f scratch[float64]
	b scratch[byte]
	s scratch[int16]
	u scratch[uint64]
}

// scratch holds one element type's buffers: the free ones and those
// checked out since the last Release.
type scratch[T any] struct{ free, used [][]T }

// take checks out a buffer of n elements with unspecified contents,
// recycling the first free buffer large enough.
func (s *scratch[T]) take(n int) []T {
	for i, b := range s.free {
		if cap(b) >= n {
			last := len(s.free) - 1
			s.free[i] = s.free[last]
			s.free = s.free[:last]
			b = b[:n]
			s.used = append(s.used, b)
			return b
		}
	}
	b := make([]T, n)
	s.used = append(s.used, b)
	return b
}

// zeroed checks out a zeroed buffer of n elements.
func (s *scratch[T]) zeroed(n int) []T {
	b := s.take(n)
	clear(b)
	return b
}

// release returns every checked-out buffer to the free list.
func (s *scratch[T]) release() {
	s.free = append(s.free, s.used...)
	s.used = s.used[:0]
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
	a.c.release()
	a.f.release()
	a.b.release()
	a.s.release()
	a.u.release()
	arenaPool.Put(a)
}

// Complex returns a zeroed scratch slice of n complex128 values.
func (a *Arena) Complex(n int) []complex128 { return a.c.zeroed(n) }

// ComplexUninit returns a scratch slice of n complex128 values whose
// contents are unspecified (recycled buffers keep their previous garbage).
// For large per-packet buffers the zeroing in Complex is a measurable
// memclr; callers that overwrite every element they later read — or never
// read some region at all — use this variant. Anything else must take the
// zeroed Complex.
func (a *Arena) ComplexUninit(n int) []complex128 { return a.c.take(n) }

// FloatUninit returns a scratch slice of n float64 values whose contents
// are unspecified, for callers that assign every element before any read
// (the matched-filter screen's prefix sums); there is no zeroed variant.
func (a *Arena) FloatUninit(n int) []float64 { return a.f.take(n) }

// BytesUninit returns a scratch slice of n bytes whose contents are
// unspecified, for callers that assign every element before any read (the
// Viterbi output bits). Anything else must take the zeroed Bytes.
func (a *Arena) BytesUninit(n int) []byte { return a.b.take(n) }

// Bytes returns a zeroed scratch slice of n bytes.
func (a *Arena) Bytes(n int) []byte { return a.b.zeroed(n) }

// Int16Uninit returns a scratch slice of n int16 values whose contents are
// unspecified, for callers that assign every element before any read (the
// Viterbi gain stream); there is no zeroed variant.
func (a *Arena) Int16Uninit(n int) []int16 { return a.s.take(n) }

// Uint64Uninit returns a scratch slice of n uint64 values whose contents
// are unspecified, for callers that assign every element before any read
// (the Viterbi traceback words); there is no zeroed variant.
func (a *Arena) Uint64Uninit(n int) []uint64 { return a.u.take(n) }
