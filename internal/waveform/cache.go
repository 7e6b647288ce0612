// Package waveform is the content-addressed TX waveform cache. FreeRider's
// codeword translation makes the clean backscattered waveform a pure
// function of (radio, PHY config, payload, tag bits): every sweep trial
// that re-runs the same packet content against a different channel draw
// re-synthesizes an identical excitation, translates it with identical tag
// bits and shifts it to the same adjacent channel. The cache keys that
// content with a sha256 digest and hands the synthesized waveform back for
// replay, so a BER-vs-SNR or distance sweep pays the OFDM/GFSK synthesis
// once per distinct packet instead of once per trial.
//
// Ownership rules (see DESIGN.md §8): entries are immutable once Put.
// Every consumer reads the cached samples and reference streams without
// modification — the channel layer already copies on apply
// (channel.Link.ApplyTo writes into a caller destination and never touches
// its source) — and the synthesizing caller must hand over buffers it will
// never write again. That makes a cache shared by concurrent sessions safe
// with no per-sample locking; the -race cache tests pin this.
//
// The cache is one mutex over one LRU list, key map and byte budget. The
// mutex records the time callers spend blocked on it (lock_wait_ns in
// /metrics); the benchmark workloads spend a negligible share of their run
// there (DESIGN.md §8.2), which is why the lock is not split.
// GetOrSynthesize adds a singleflight layer on top: concurrent misses on
// one key run the synthesis function once and share the result.
package waveform

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/signal"
)

// Key is the content address of one clean TX waveform.
type Key [sha256.Size]byte

// KeyBuilder accumulates length-prefixed key parts and digests them. Use
// the fluent one-shot form — waveform.NewKey().Byte(...).Bytes(...).Sum()
// — which recycles the builder through a pool; steady-state key
// construction performs zero heap allocations.
type KeyBuilder struct {
	buf []byte
}

var builderPool = signal.FreeList[*KeyBuilder]{New: func() *KeyBuilder { return new(KeyBuilder) }}

// NewKey checks a fresh builder out of the pool.
func NewKey() *KeyBuilder {
	b := builderPool.Get()
	b.buf = b.buf[:0]
	return b
}

// Byte appends a single byte part.
func (b *KeyBuilder) Byte(v byte) *KeyBuilder {
	b.buf = append(b.buf, v)
	return b
}

// Bool appends a boolean part.
func (b *KeyBuilder) Bool(v bool) *KeyBuilder {
	if v {
		return b.Byte(1)
	}
	return b.Byte(0)
}

// Uint64 appends a fixed-width integer part.
func (b *KeyBuilder) Uint64(v uint64) *KeyBuilder {
	b.buf = binary.LittleEndian.AppendUint64(b.buf, v)
	return b
}

// Int64 appends a fixed-width signed integer part.
func (b *KeyBuilder) Int64(v int64) *KeyBuilder {
	return b.Uint64(uint64(v))
}

// Float64 appends a float part by its exact bit pattern, so distinct
// values never collide and equal values always agree (NaNs included,
// which %v-style text rendering cannot promise).
func (b *KeyBuilder) Float64(v float64) *KeyBuilder {
	return b.Uint64(math.Float64bits(v))
}

// Bytes appends a length-prefixed variable-width part. The prefix keeps
// adjacent variable parts (payload, tag bits) from aliasing each other.
func (b *KeyBuilder) Bytes(p []byte) *KeyBuilder {
	b.buf = binary.LittleEndian.AppendUint64(b.buf, uint64(len(p)))
	b.buf = append(b.buf, p...)
	return b
}

// String appends a length-prefixed string part without copying it through
// a byte slice.
func (b *KeyBuilder) String(s string) *KeyBuilder {
	b.buf = binary.LittleEndian.AppendUint64(b.buf, uint64(len(s)))
	b.buf = append(b.buf, s...)
	return b
}

// Sum digests the accumulated parts and returns the builder to the pool;
// the builder must not be used again after Sum.
func (b *KeyBuilder) Sum() Key {
	k := Key(sha256.Sum256(b.buf))
	builderPool.Put(b)
	return k
}

// Entry is one memoized TX product: the clean post-translation,
// post-channel-shift waveform plus the reference streams the backscatter
// decoder compares against. All fields are read-only once the entry is
// handed to Put.
type Entry struct {
	// Wave is the backscattered waveform as the tag emits it (before the
	// channel). Consumers must not modify the samples.
	Wave *signal.Signal
	// MeanPower is Wave's precomputed mean |x|² (channel normalisation).
	MeanPower float64
	// Used is how many tag bits the translation embedded.
	Used int
	// Airtime is the excitation packet duration in seconds.
	Airtime float64
	// Ref is the radio's reference stream (descrambled bits, symbols or
	// frame bits) that receiver 1 reports over the backhaul.
	Ref []byte
	// CodedRef is the WiFi quaternary reference (raw interleaved coded
	// bits); nil outside quaternary configs.
	CodedRef []byte
}

// sizeBytes approximates the entry's resident size for the byte cap.
func (e *Entry) sizeBytes() int64 {
	const overhead = 256 // struct, map and list bookkeeping
	n := int64(overhead) + int64(cap(e.Ref)) + int64(cap(e.CodedRef))
	if e.Wave != nil {
		n += int64(cap(e.Wave.Samples)) * 16
	}
	return n
}

// DefaultMaxBytes bounds a cache when New is given a non-positive cap:
// roughly a hundred full-size WiFi excitation packets.
const DefaultMaxBytes = 64 << 20

// Cache is a byte-capped LRU of waveform entries behind one mutex, safe
// for concurrent use by any number of sessions. Lookups on the warm path
// (Get with a pooled KeyBuilder) perform zero heap allocations.
type Cache struct {
	counters obs.CacheCounters

	mu    sync.Mutex
	max   int64
	bytes int64
	ll    *list.List // front = most recently used
	byKey map[Key]*list.Element
	// lockWaitNs is guarded by mu (it is only written after Lock returns,
	// so the write is inside the critical section even though the wait
	// itself was not).
	lockWaitNs int64

	sfMu     sync.Mutex
	inFlight map[Key]*sfCall
}

type cacheItem struct {
	key   Key
	entry *Entry
	size  int64
}

// sfCall is one in-flight synthesis: the leader resolves entry/err and
// then releases the WaitGroup; followers wait and read.
type sfCall struct {
	wg    sync.WaitGroup
	entry *Entry
	err   error
}

// New returns an empty cache holding at most maxBytes of waveform data
// (DefaultMaxBytes when maxBytes <= 0). An entry larger than the whole
// budget is rejected (and counted) rather than stored.
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Cache{
		max:      maxBytes,
		ll:       list.New(),
		byKey:    map[Key]*list.Element{},
		inFlight: map[Key]*sfCall{},
	}
}

// lock acquires the cache mutex, accumulating the time spent blocked when
// another goroutine holds it. The uncontended path is a bare TryLock — no
// clock reads — so warm single-session lookups stay allocation- and
// syscall-free.
func (c *Cache) lock() {
	if c.mu.TryLock() {
		return
	}
	t0 := time.Now()
	c.mu.Lock()
	c.lockWaitNs += time.Since(t0).Nanoseconds()
}

// Get returns the entry stored under k, or nil on a miss. The hit/miss
// counters move inside the critical section so a Stats snapshot holding
// the lock sees counters and sizes from one consistent cut.
func (c *Cache) Get(k Key) *Entry {
	c.lock()
	el, ok := c.byKey[k]
	if !ok {
		c.counters.Miss()
		c.mu.Unlock()
		return nil
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*cacheItem).entry
	c.counters.Hit()
	c.mu.Unlock()
	return e
}

// peek is Get without counter movement: the singleflight leader uses it to
// re-check residency after registering, so the double check does not
// inflate the miss count the caller's Get already recorded.
func (c *Cache) peek(k Key) *Entry {
	c.lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[k]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*cacheItem).entry
	}
	return nil
}

// Put stores e under k and reports whether the entry was stored, evicting
// least-recently-used entries until the byte budget holds. The two
// admission refusals move counters instead of failing silently: an entry
// alone larger than the budget is rejected (Rejected), and when k is
// already present (two sessions synthesized the same content concurrently)
// the incumbent wins (Duplicates) — entries are pure functions of their
// key, so either copy serves every reader.
func (c *Cache) Put(k Key, e *Entry) bool {
	size := e.sizeBytes()
	c.lock()
	defer c.mu.Unlock()
	if size > c.max {
		c.counters.Reject()
		return false
	}
	if el, ok := c.byKey[k]; ok {
		c.ll.MoveToFront(el)
		c.counters.Duplicate()
		return false
	}
	c.byKey[k] = c.ll.PushFront(&cacheItem{key: k, entry: e, size: size})
	c.bytes += size
	for c.bytes > c.max {
		oldest := c.ll.Back()
		it := oldest.Value.(*cacheItem)
		c.ll.Remove(oldest)
		delete(c.byKey, it.key)
		c.bytes -= it.size
		c.counters.Evict()
	}
	return true
}

// GetOrSynthesize returns the entry for k, running fn to synthesize it on
// a miss. Concurrent callers missing on the same key run fn exactly once:
// the first becomes the leader, followers block and share the leader's
// entry (or error), and each follower moves the Coalesced counter. The
// lookup counts a hit or miss exactly like Get, so callers use this as
// their only cache access per packet.
//
// The boolean reports whether fn ran in this call — callers replaying
// per-packet TX state on a served entry (the WiFi scrambler rotation) key
// off it. While fn runs the leader owns the prospective entry exclusively;
// ownership transfers to the cache at Put, after which the entry is
// immutable like any other (DESIGN.md §8.2). fn's result is returned to
// every waiter even when the cache refuses to store it (oversize), so
// coalescing never degrades into an error.
func (c *Cache) GetOrSynthesize(k Key, fn func() (*Entry, error)) (*Entry, bool, error) {
	if e := c.Get(k); e != nil {
		return e, false, nil
	}
	c.sfMu.Lock()
	if call, ok := c.inFlight[k]; ok {
		c.counters.Coalesce()
		c.sfMu.Unlock()
		call.wg.Wait()
		return call.entry, false, call.err
	}
	call := &sfCall{}
	call.wg.Add(1)
	c.inFlight[k] = call
	c.sfMu.Unlock()

	// A previous leader may have completed between our Get and our
	// registration; re-check residency (uncounted) before synthesizing.
	e := c.peek(k)
	var err error
	ran := false
	if e == nil {
		ran = true
		e, err = fn()
		if err == nil {
			c.Put(k, e)
		}
	}
	call.entry, call.err = e, err
	c.sfMu.Lock()
	delete(c.inFlight, k)
	c.sfMu.Unlock()
	call.wg.Done()
	return e, ran && err == nil, err
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	c.lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the resident waveform bytes.
func (c *Cache) Bytes() int64 {
	c.lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats snapshots the cache for /metrics. It holds the cache lock while
// reading both the sizes and the counters: all counter movement happens
// inside the critical section (Coalesced excepted — it moves under the
// singleflight mutex), so the snapshot is one consistent cut and a scrape
// can never report entries that its own miss count has not paid for.
func (c *Cache) Stats() obs.CacheStats {
	c.lock()
	defer c.mu.Unlock()
	st := c.counters.Snapshot()
	st.Entries = c.ll.Len()
	st.Bytes = c.bytes
	st.CapacityBytes = c.max
	st.LockWaitNs = c.lockWaitNs
	return st
}
