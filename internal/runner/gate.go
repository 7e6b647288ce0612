package runner

// Gate bounds how many goroutines may be inside a section at once,
// *without* queueing: TryEnter fails immediately when the gate is full.
// That is the primitive a server needs for backpressure — a request past
// the limit is turned away (429 + Retry-After) instead of parking another
// goroutine, so load cannot accumulate unbounded state.
type Gate struct {
	slots chan struct{}
}

// NewGate returns a gate admitting at most n concurrent entries; n < 1 is
// coerced to 1.
func NewGate(n int) *Gate {
	if n < 1 {
		n = 1
	}
	return &Gate{slots: make(chan struct{}, n)}
}

// TryEnter claims a slot if one is free, reporting whether it did. Every
// successful TryEnter must be paired with exactly one Leave.
func (g *Gate) TryEnter() bool {
	select {
	case g.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// Leave releases a slot claimed by TryEnter.
func (g *Gate) Leave() { <-g.slots }

// Capacity returns the gate's concurrent-entry bound.
func (g *Gate) Capacity() int { return cap(g.slots) }
