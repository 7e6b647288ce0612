package waveform

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/signal"
)

func testEntry(samples int, tag byte) *Entry {
	s := signal.New(20e6, samples)
	for i := range s.Samples {
		s.Samples[i] = complex(float64(tag), float64(i%7))
	}
	return &Entry{Wave: s, MeanPower: s.MeanPower(), Used: int(tag), Airtime: 1e-3, Ref: []byte{tag}}
}

func keyOf(parts ...byte) Key {
	b := NewKey()
	for _, p := range parts {
		b.Byte(p)
	}
	return b.Sum()
}

func TestKeyBuilderDistinguishesParts(t *testing.T) {
	// Length prefixes must keep adjacent variable parts from aliasing:
	// ("ab","c") and ("a","bc") concatenate identically without them.
	k1 := NewKey().Bytes([]byte("ab")).Bytes([]byte("c")).Sum()
	k2 := NewKey().Bytes([]byte("a")).Bytes([]byte("bc")).Sum()
	if k1 == k2 {
		t.Fatal("length prefixes failed to separate variable parts")
	}
	if keyOf(1, 2) == keyOf(2, 1) {
		t.Fatal("part order must matter")
	}
	if keyOf(1) != keyOf(1) {
		t.Fatal("same parts must produce the same key")
	}
}

func TestCacheHitMissStats(t *testing.T) {
	c := New(1 << 20)
	k := keyOf(1)
	if c.Get(k) != nil {
		t.Fatal("empty cache returned an entry")
	}
	e := testEntry(64, 1)
	if !c.Put(k, e) {
		t.Fatal("Put of a fresh fitting entry must report stored")
	}
	got := c.Get(k)
	if got != e {
		t.Fatal("cache returned a different entry")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 entry", st)
	}
	if st.HitRate != 0.5 {
		t.Fatalf("hit rate %v, want 0.5", st.HitRate)
	}
	if st.Bytes <= 0 || st.Bytes > st.CapacityBytes {
		t.Fatalf("byte accounting out of range: %+v", st)
	}
}

// TestCachePutDuplicateCounts pins the duplicate-put accounting: a second
// Put under a resident key keeps the incumbent, reports not-stored, and
// moves the Duplicates counter instead of disappearing silently.
func TestCachePutDuplicateCounts(t *testing.T) {
	c := New(1 << 20)
	k := keyOf(7)
	incumbent := testEntry(64, 7)
	if !c.Put(k, incumbent) {
		t.Fatal("first Put must store")
	}
	if c.Put(k, testEntry(64, 7)) {
		t.Fatal("duplicate Put must not report stored")
	}
	if got := c.Get(k); got != incumbent {
		t.Fatal("incumbent must win a duplicate Put")
	}
	st := c.Stats()
	if st.Duplicates != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 duplicate, 1 entry", st)
	}
}

func TestCacheLRUEvictionBoundsMemory(t *testing.T) {
	perEntry := testEntry(1024, 0).sizeBytes()
	c := New(perEntry * 4) // room for exactly 4 entries
	for i := 0; i < 32; i++ {
		c.Put(keyOf(byte(i)), testEntry(1024, byte(i)))
	}
	if n := c.Len(); n != 4 {
		t.Fatalf("%d entries resident, want 4", n)
	}
	if b := c.Bytes(); b > perEntry*4 {
		t.Fatalf("%d bytes resident, cap %d", b, perEntry*4)
	}
	if ev := c.Stats().Evictions; ev != 28 {
		t.Fatalf("%d evictions, want 28", ev)
	}
	// The most recent four survive; everything older is gone.
	for i := 0; i < 28; i++ {
		if c.Get(keyOf(byte(i))) != nil {
			t.Fatalf("entry %d should have been evicted", i)
		}
	}
	for i := 28; i < 32; i++ {
		if c.Get(keyOf(byte(i))) == nil {
			t.Fatalf("entry %d should be resident", i)
		}
	}
}

// TestCrossShardByteAccounting checks the byte budget across every view
// of the cache: after eviction churn the resident bytes stay within the
// requested capacity, the capacity is reported as requested, and Bytes,
// Len and the Stats snapshot all agree.
func TestCrossShardByteAccounting(t *testing.T) {
	perEntry := testEntry(512, 0).sizeBytes()
	total := perEntry * 24
	c := New(total)
	for i := 0; i < 64; i++ {
		c.Put(keyOf(byte(i)), testEntry(512, byte(i)))
	}
	if n := c.Len(); n != 24 {
		t.Fatalf("%d entries resident, want 24", n)
	}
	if b := c.Bytes(); b > total {
		t.Fatalf("%d bytes resident, cap %d", b, total)
	}
	st := c.Stats()
	if st.CapacityBytes != total {
		t.Fatalf("capacity = %d, requested %d", st.CapacityBytes, total)
	}
	if st.Bytes != c.Bytes() || st.Entries != c.Len() {
		t.Fatalf("stats %+v disagree with Bytes() = %d, Len() = %d", st, c.Bytes(), c.Len())
	}
	if st.Evictions != 64-24 {
		t.Fatalf("%d evictions, want %d", st.Evictions, 64-24)
	}
}

func TestCacheLRUTouchOnGet(t *testing.T) {
	perEntry := testEntry(256, 0).sizeBytes()
	c := New(perEntry * 2)
	c.Put(keyOf(1), testEntry(256, 1))
	c.Put(keyOf(2), testEntry(256, 2))
	c.Get(keyOf(1)) // touch 1 so 2 becomes the LRU victim
	c.Put(keyOf(3), testEntry(256, 3))
	if c.Get(keyOf(2)) != nil {
		t.Fatal("entry 2 should have been evicted (LRU)")
	}
	if c.Get(keyOf(1)) == nil || c.Get(keyOf(3)) == nil {
		t.Fatal("entries 1 and 3 should be resident")
	}
}

// TestCachePutAdmitsUpToBudget pins admission against the whole byte
// budget: an entry well over an eighth of an empty cache, but within the
// budget, is stored, not rejected.
func TestCachePutAdmitsUpToBudget(t *testing.T) {
	perEntry := testEntry(1024, 0).sizeBytes()
	c := New(4 * perEntry)
	big := testEntry(3*1024, 1) // ~3/4 of the budget
	if size := big.sizeBytes(); size <= 4*perEntry/8 || size > 4*perEntry {
		t.Fatalf("test entry of %d bytes is not between 1/8 of and the whole %d-byte budget", size, 4*perEntry)
	}
	if !c.Put(keyOf(1), big) {
		t.Fatal("an entry within the budget must be stored")
	}
	if c.Get(keyOf(1)) != big {
		t.Fatal("stored entry not served back")
	}
	if st := c.Stats(); st.Rejected != 0 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 0 rejections, 1 entry", st)
	}
}

func TestCacheRejectsOversizeEntry(t *testing.T) {
	c := New(1024)
	if c.Put(keyOf(1), testEntry(4096, 1)) { // 64 KB of samples into a 1 KB cache
		t.Fatal("oversize Put must not report stored")
	}
	if c.Len() != 0 {
		t.Fatal("oversize entry must not be stored")
	}
	if st := c.Stats(); st.Rejected != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want the refusal counted as 1 rejection, 0 evictions", st)
	}
}

// TestCacheConcurrentSessions is the -race correctness test: many
// goroutines hammer a small shared cache with overlapping key sets,
// reading every sample of each returned entry while writers insert and
// evict. Entries are immutable after Put, so the race detector stays
// silent and every read sees the content its key addresses.
func TestCacheConcurrentSessions(t *testing.T) {
	perEntry := testEntry(512, 0).sizeBytes()
	c := New(perEntry * 8) // force constant eviction churn
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				id := byte((g + i) % 24)
				k := keyOf(id)
				e := c.Get(k)
				if e == nil {
					e = testEntry(512, id)
					c.Put(k, e)
				}
				// Read the whole entry: any mutation after Put trips -race.
				var p float64
				for _, v := range e.Wave.Samples {
					p += real(v)
				}
				if real(e.Wave.Samples[0]) != float64(id) || e.Used != int(id) {
					errs <- fmt.Errorf("goroutine %d: entry for id %d carries wrong content", g, id)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := c.Stats()
	if st.Hits+st.Misses != 8*400 {
		t.Fatalf("lookup accounting: %d hits + %d misses != %d", st.Hits, st.Misses, 8*400)
	}
}

// TestCacheGetZeroAlloc pins the warm lookup path — key build plus Get —
// at zero heap allocations.
func TestCacheGetZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are not meaningful under the race detector")
	}
	c := New(1 << 20)
	payload := make([]byte, 1500)
	tagBits := make([]byte, 128)
	mk := func() Key {
		return NewKey().Byte(0).Uint64(6).Bytes(payload).Bytes(tagBits).Sum()
	}
	c.Put(mk(), testEntry(64, 1))
	allocs := testing.AllocsPerRun(100, func() {
		if c.Get(mk()) == nil {
			t.Fatal("expected a warm hit")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Get: %v allocs/op, want 0", allocs)
	}
}

// TestSingleflightColdKeyRace is the acceptance race test: 64 goroutines
// miss on one cold key simultaneously and the synthesis function must run
// exactly once, with every caller receiving the same entry and the other
// 63 lookups counted as coalesced. The leader's synthesis blocks until
// every follower has joined the in-flight call, so the coalescing is
// deterministic, not a lucky interleaving. Run under -race this also
// proves the handoff publishes the entry safely.
func TestSingleflightColdKeyRace(t *testing.T) {
	c := New(1 << 20)
	k := keyOf(42)
	var calls atomic.Int64
	entry := testEntry(256, 42)

	const goroutines = 64
	var done sync.WaitGroup
	results := make([]*Entry, goroutines)
	done.Add(goroutines)
	deadline := time.Now().Add(10 * time.Second)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer done.Done()
			e, _, err := c.GetOrSynthesize(k, func() (*Entry, error) {
				calls.Add(1)
				// Hold the flight open until the other 63 goroutines have
				// coalesced onto it (they cannot hit the cache before this
				// returns). The deadline turns a lost follower into a
				// counter assertion failure instead of a hang.
				for c.Stats().Coalesced < goroutines-1 && time.Now().Before(deadline) {
					runtime.Gosched()
				}
				return entry, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[g] = e
		}(g)
	}
	done.Wait()

	if n := calls.Load(); n != 1 {
		t.Fatalf("synthesis ran %d times for one cold key, want exactly 1", n)
	}
	for g, e := range results {
		if e != entry {
			t.Fatalf("goroutine %d received a different entry", g)
		}
	}
	st := c.Stats()
	if st.Coalesced != goroutines-1 {
		t.Fatalf("coalesced = %d, want %d", st.Coalesced, goroutines-1)
	}
	if st.Hits+st.Misses != goroutines {
		t.Fatalf("lookup accounting: %d hits + %d misses != %d", st.Hits, st.Misses, goroutines)
	}
}

// TestGetOrSynthesizeLeaderFlag pins the synthesized-here contract the
// WiFi scrambler replay depends on: true exactly when fn ran in this call
// and produced the entry, false on a warm hit.
func TestGetOrSynthesizeLeaderFlag(t *testing.T) {
	c := New(1 << 20)
	k := keyOf(9)
	e, ran, err := c.GetOrSynthesize(k, func() (*Entry, error) { return testEntry(64, 9), nil })
	if err != nil || !ran || e == nil {
		t.Fatalf("cold call: entry=%v ran=%v err=%v, want synthesis here", e, ran, err)
	}
	e2, ran, err := c.GetOrSynthesize(k, func() (*Entry, error) {
		t.Fatal("warm call must not synthesize")
		return nil, nil
	})
	if err != nil || ran || e2 != e {
		t.Fatalf("warm call: entry match=%v ran=%v err=%v, want cached entry without synthesis", e2 == e, ran, err)
	}
}

// TestGetOrSynthesizeError propagates a synthesis failure to the caller
// (and any coalesced waiters), caches nothing, and lets a later call
// retry.
func TestGetOrSynthesizeError(t *testing.T) {
	c := New(1 << 20)
	k := keyOf(13)
	boom := errors.New("synthesis failed")
	if _, ran, err := c.GetOrSynthesize(k, func() (*Entry, error) { return nil, boom }); err != boom || ran {
		t.Fatalf("got ran=%v err=%v, want the synthesis error and ran=false", ran, err)
	}
	if c.Len() != 0 {
		t.Fatal("a failed synthesis must cache nothing")
	}
	e, ran, err := c.GetOrSynthesize(k, func() (*Entry, error) { return testEntry(64, 13), nil })
	if err != nil || !ran || e == nil {
		t.Fatalf("retry after failure: entry=%v ran=%v err=%v", e, ran, err)
	}
}

// TestStatsConsistentSnapshot hammers the cache from writers that always
// Get before Put while a scraper loops over Stats. Every resident entry
// was preceded by a counted miss inside the same critical section, so a
// consistent snapshot can never report more entries than misses — the
// exact inversion the pre-fix code allowed by reading the counters before
// taking the locks.
func TestStatsConsistentSnapshot(t *testing.T) {
	c := New(1 << 20)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := keyOf(byte(w), byte(i), byte(i>>8))
				if c.Get(k) == nil {
					c.Put(k, testEntry(16, byte(w)))
				}
			}
		}(w)
	}
	for i := 0; i < 2000; i++ {
		st := c.Stats()
		if int64(st.Entries) > st.Misses {
			close(stop)
			wg.Wait()
			t.Fatalf("inconsistent snapshot: %d entries resident but only %d misses counted", st.Entries, st.Misses)
		}
	}
	close(stop)
	wg.Wait()
}

// TestGetOrSynthesizeWarmZeroAlloc extends the zero-allocation pin to the
// singleflight entry point: a warm hit through GetOrSynthesize — key build
// included — must not touch the heap, or the serve path's per-packet
// lookup regresses.
func TestGetOrSynthesizeWarmZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are not meaningful under the race detector")
	}
	c := New(1 << 20)
	payload := make([]byte, 1500)
	tagBits := make([]byte, 128)
	mk := func() Key {
		return NewKey().Byte(0).Uint64(6).Bytes(payload).Bytes(tagBits).Sum()
	}
	c.Put(mk(), testEntry(64, 1))
	allocs := testing.AllocsPerRun(100, func() {
		e, ran, err := c.GetOrSynthesize(mk(), func() (*Entry, error) { return testEntry(64, 1), nil })
		if e == nil || ran || err != nil {
			t.Fatal("expected a warm hit")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm GetOrSynthesize: %v allocs/op, want 0", allocs)
	}
}
