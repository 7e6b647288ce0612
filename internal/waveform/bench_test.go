package waveform

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkWaveformCacheContention is the serve-path contention
// benchmark: 16 goroutines hammer one shared cache with a mixed-radio
// working set — warm Gets, an eviction-churning Put tail, and a rotating
// singleflight synthesis — the access mix the session pool produces under
// concurrent /v1/simulate load. `make bench-serve` records it in
// BENCH_SERVE.json. Reported extras: coalesced/s (singleflight sharing
// rate) and lockwait-ns/op (time goroutines spent blocked on the cache
// lock per operation).
func BenchmarkWaveformCacheContention(b *testing.B) {
	const goroutines = 16
	// Mixed-radio working set: three radio prefixes, different entry
	// sizes per radio like real WiFi/ZigBee/Bluetooth waveforms. The
	// budget holds the whole set with 4× headroom, so the steady state is
	// the serve path's hot case — warm lookups — where lock overhead is
	// the dominant cost.
	type radioShape struct {
		radio   byte
		samples int
	}
	shapes := []radioShape{{0, 1024}, {1, 512}, {2, 256}}
	const perRadio = 24
	var keys []Key
	var entries []*Entry
	var setBytes int64
	for _, sh := range shapes {
		for i := 0; i < perRadio; i++ {
			keys = append(keys, NewKey().Byte(sh.radio).Uint64(uint64(i)).Sum())
			e := testEntry(sh.samples, byte(i))
			entries = append(entries, e)
			setBytes += e.sizeBytes()
		}
	}
	c := New(setBytes * 4)
	for i, k := range keys {
		c.Put(k, entries[i])
	}
	// Cold keys for the singleflight leg, outside the hot set so they
	// always miss.
	var coldSeq atomic.Uint64

	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		n := b.N / goroutines
		if g < b.N%goroutines {
			n++
		}
		go func(g, n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				j := (i*7 + g*13) % len(keys)
				if i%64 == 63 {
					// Singleflight leg: goroutines race a slowly rotating
					// cold key, so concurrent arrivals coalesce.
					cold := NewKey().Byte(9).Uint64(coldSeq.Load() / 256).Sum()
					coldSeq.Add(1)
					_, _, _ = c.GetOrSynthesize(cold, func() (*Entry, error) {
						return entries[j], nil
					})
					continue
				}
				if e := c.Get(keys[j]); e == nil {
					c.Put(keys[j], entries[j])
				}
			}
		}(g, n)
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()

	st := c.Stats()
	if sec := elapsed.Seconds(); sec > 0 {
		b.ReportMetric(float64(st.Coalesced)/sec, "coalesced/s")
	}
	if b.N > 0 {
		b.ReportMetric(float64(st.LockWaitNs)/float64(b.N), "lockwait-ns/op")
	}
}
