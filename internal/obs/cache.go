package obs

import "sync/atomic"

// CacheCounters is the shared lookup/admission instrumentation for the
// process's content caches (the waveform TX cache, the server's session
// pool). All methods are safe for concurrent use and the zero value is
// ready; embed it in a cache and surface Snapshot through /metrics.
//
// Beyond the classic hit/miss/eviction triple it distinguishes the two
// silent-admission outcomes that used to be invisible — oversize rejections
// and duplicate puts — plus singleflight coalescing, so a scrape can tell
// "never cached" from "always evicted" from "synthesized once, shared by
// many".
type CacheCounters struct {
	hits, misses, evictions         atomic.Int64
	rejected, duplicates, coalesced atomic.Int64
}

// Hit records one cache hit.
func (c *CacheCounters) Hit() { c.hits.Add(1) }

// Miss records one cache miss.
func (c *CacheCounters) Miss() { c.misses.Add(1) }

// Evict records one eviction.
func (c *CacheCounters) Evict() { c.evictions.Add(1) }

// Reject records one admission refusal (entry larger than the byte cap).
func (c *CacheCounters) Reject() { c.rejected.Add(1) }

// Duplicate records one put whose key was already resident (the incumbent
// won; the offered entry was dropped).
func (c *CacheCounters) Duplicate() { c.duplicates.Add(1) }

// Coalesce records one lookup that joined an in-flight synthesis instead
// of running its own (singleflight follower).
func (c *CacheCounters) Coalesce() { c.coalesced.Add(1) }

// CacheStats is the /metrics JSON view of a cache. Size fields are filled
// by the owning cache; the counter fields come from Snapshot.
type CacheStats struct {
	Entries       int     `json:"entries"`
	Bytes         int64   `json:"bytes,omitempty"`
	CapacityBytes int64   `json:"capacity_bytes,omitempty"`
	Hits          int64   `json:"hits"`
	Misses        int64   `json:"misses"`
	Evictions     int64   `json:"evictions"`
	Rejected      int64   `json:"rejected"`
	Duplicates    int64   `json:"duplicates"`
	Coalesced     int64   `json:"coalesced"`
	LockWaitNs    int64   `json:"lock_wait_ns,omitempty"`
	HitRate       float64 `json:"hit_rate"`
}

// Snapshot captures the counters, computing the hit rate over all lookups.
func (c *CacheCounters) Snapshot() CacheStats {
	st := CacheStats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Evictions:  c.evictions.Load(),
		Rejected:   c.rejected.Load(),
		Duplicates: c.duplicates.Load(),
		Coalesced:  c.coalesced.Load(),
	}
	if total := st.Hits + st.Misses; total > 0 {
		st.HitRate = float64(st.Hits) / float64(total)
	}
	return st
}
