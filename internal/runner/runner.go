// Package runner is the shared deterministic-parallel execution engine of
// the experiment harness. It provides a bounded worker pool whose results
// are independent of the worker count (jobs write into caller-owned slots
// by index, errors are reported lowest-index first) and a hash-based seed
// derivation that gives every (experiment, point, repetition) tuple its own
// collision-free RNG stream. Together they make "run it on all cores" a
// pure performance decision: the numbers that come out are bit-identical
// to a serial run.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// DeriveSeed maps (base seed, domain, indices) to a 64-bit RNG seed via
// FNV-1a with a splitmix64 finalizer. Distinct domains or indices give
// uncorrelated seeds, unlike the additive `base + i*1000` arithmetic it
// replaces, where separate experiments could collide on the same stream.
// The result depends only on the inputs — never on worker count or
// scheduling order — so derived streams are stable across machines.
func DeriveSeed(base int64, domain string, idx ...int) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime64
		}
	}
	mix(uint64(base))
	for i := 0; i < len(domain); i++ {
		h ^= uint64(domain[i])
		h *= prime64
	}
	// Terminator separates the domain from the index tuple, so that
	// ("ab", 1) and ("a", ...) can never alias.
	h ^= 0xff
	h *= prime64
	for _, v := range idx {
		mix(uint64(int64(v)))
	}
	// splitmix64 finalizer: full avalanche over the 64-bit state.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return int64(h)
}

// Stats reports one pool run: the workers used and the summed per-job
// busy time, from which the metrics layer derives pool utilisation.
type Stats struct {
	Workers int
	Busy    time.Duration
}

// DefaultWorkers is the pool width used when a caller passes workers <= 0.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Map runs fn(i) for every i in [0, n) on at most `workers` goroutines
// (all cores when workers <= 0). Job i writes its output into the caller's
// own slice at index i, so results are ordered by construction. If any
// jobs fail, the error of the lowest failing index is returned — the same
// error a serial loop would have hit first — and the remaining jobs are
// still drained, keeping behaviour deterministic.
func Map(n, workers int, fn func(i int) error) error {
	_, err := MapStats(n, workers, fn)
	return err
}

// MapBatches runs fn(lo, hi) over contiguous index ranges covering [0, n)
// in steps of `batch` (the last range may be short) on the same bounded
// pool as Map. Batch b covers [b·batch, min((b+1)·batch, n)). Because every
// index still lands in exactly one call and ranges are fixed by (n, batch)
// alone — never by worker count or scheduling — a caller whose fn(lo, hi)
// is equivalent to the serial loop over [lo, hi) gets results bit-identical
// to Map(n, workers, perIndexFn) while amortising per-dispatch setup
// (scratch checkout, RNG seeding, plan lookups) across each range. Errors
// report lowest batch first, matching the serial order.
func MapBatches(n, batch, workers int, fn func(lo, hi int) error) error {
	if n < 0 {
		return fmt.Errorf("runner: negative job count %d", n)
	}
	if batch <= 0 {
		batch = 1
	}
	nb := (n + batch - 1) / batch
	return Map(nb, workers, func(b int) error {
		lo := b * batch
		hi := lo + batch
		if hi > n {
			hi = n
		}
		return fn(lo, hi)
	})
}

// MapStats is Map plus pool statistics for the metrics layer.
func MapStats(n, workers int, fn func(i int) error) (Stats, error) {
	if n < 0 {
		return Stats{}, fmt.Errorf("runner: negative job count %d", n)
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	st := Stats{Workers: workers}
	if n == 0 {
		return st, nil
	}
	errs := make([]error, n)
	var next, busy atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				t0 := time.Now()
				errs[i] = fn(i)
				busy.Add(int64(time.Since(t0)))
			}
		}()
	}
	wg.Wait()
	st.Busy = time.Duration(busy.Load())
	for _, err := range errs {
		if err != nil {
			return st, err
		}
	}
	return st, nil
}
