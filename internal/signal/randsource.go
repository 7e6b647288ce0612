package signal

import (
	"math/rand"

	"repro/internal/simd"
)

// RandSource is math/rand's default source with a faster Seed: the same
// additive lagged-Fibonacci generator over the same 607-word state, so
// Int63 and Uint64 return exactly what rand.NewSource(seed)'s do after
// Seed(seed). It is a rand.Source64 for rand.New.
//
// math/rand seeds the state from a Lehmer generator, x ← 48271·x mod
// (2³¹−1), stepped 20 times and then 3 times per word, and XORs each
// word with a fixed table (rngCooked). Its Seed takes those 1841 steps
// one after another. Here the 1821 values the words use are each the
// seed times a power of 48271 precomputed at init, so they are
// independent products; modular multiplication is exact integer
// arithmetic, so they are the same values. The fixed table is recovered
// at init from rand.NewSource(1)'s first 607 outputs (randCooked).
//
// A RandSource is not safe for concurrent use.
type RandSource struct {
	tap, feed int
	vec       [simd.FibLong]uint64
}

// RandPool recycles the rand.Rand generators over a RandSource that the
// per-packet pipelines reseed for every use: core's derived packet
// streams and the fault layer's burst and drift replays. A source carries
// a ~5 KB state table, so without the pool those generators dominate the
// steady-state allocations. It is a FreeList, not a sync.Pool, so that
// once warm it is deterministically allocation-free (see FreeList); Cap
// bounds the pinned generators while covering both users' concurrent
// checkouts on a wide worker pool.
var RandPool = FreeList[*rand.Rand]{New: func() *rand.Rand { return rand.New(newRandSource(0)) }, Cap: 48}

// newRandSource returns a source seeded with seed.
func newRandSource(seed int64) *RandSource {
	r := new(RandSource)
	r.Seed(seed)
	return r
}

// Seed sets the state rand.NewSource(seed) starts from.
func (r *RandSource) Seed(seed int64) {
	r.tap, r.feed = 0, simd.FibLong-simd.FibShort
	seedState(&r.vec, seed)
}

// Uint64 returns the next value, as math/rand's source does.
func (r *RandSource) Uint64() uint64 {
	if r.tap--; r.tap < 0 {
		r.tap += simd.FibLong
	}
	if r.feed--; r.feed < 0 {
		r.feed += simd.FibLong
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return x
}

// Int63 returns the next value's low 63 bits.
func (r *RandSource) Int63() int64 { return int64(r.Uint64() & (1<<63 - 1)) }

// lehmerMod is the Lehmer generator's prime modulus, 2³¹−1.
const lehmerMod = 1<<31 - 1

// lehmerPow[k] is 48271^(21+k) mod 2³¹−1: state word i takes the
// generator's values after 21+3i, 22+3i and 23+3i steps.
var lehmerPow = func() (p [3 * simd.FibLong]uint32) {
	x := uint64(1)
	for k := -20; k < len(p); k++ {
		x = x * 48271 % lehmerMod
		if k >= 0 {
			p[k] = uint32(x)
		}
	}
	return p
}()

// seedState writes the 607 state words math/rand's Seed builds for
// seed, in its order.
func seedState(vec *[simd.FibLong]uint64, seed int64) {
	lehmerState(vec, seed)
	for i := range vec {
		vec[i] ^= randCooked[i]
	}
}

// lehmerState writes the Lehmer part of each state word: from the start
// value, the generator's values at the word's three powers, shifted and
// XORed as math/rand combines them (before the XOR with rngCooked).
func lehmerState(vec *[simd.FibLong]uint64, seed int64) {
	s := lehmerSeed(seed)
	for i := range vec {
		pow := (*[3]uint32)(lehmerPow[3*i:])
		a := mulModLehmer(s, uint64(pow[0]))
		b := mulModLehmer(s, uint64(pow[1]))
		c := mulModLehmer(s, uint64(pow[2]))
		vec[i] = a<<40 ^ b<<20 ^ c
	}
}

// lehmerSeed is the generator's start value for seed, as math/rand's
// Seed reduces it: modulo 2³¹−1 into [1, 2³¹−2], with 0 replaced.
func lehmerSeed(seed int64) uint64 {
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// mulModLehmer returns a·b mod 2³¹−1 for a, b in [1, 2³¹−2]: 2³¹ ≡ 1,
// so the high bits fold onto the low ones. One fold leaves less than
// 2·(2³¹−1) (equality would need a·b ≡ 0), so one subtraction finishes.
func mulModLehmer(a, b uint64) uint64 {
	p := a * b
	p = p&lehmerMod + p>>31
	if p >= lehmerMod {
		p -= lehmerMod
	}
	return p
}

// randCooked is math/rand's rngCooked table, recovered from the source
// it seeds. After Seed, output k adds state word fed(k) = (333−k) mod
// 607 to word 606−k, which from output 273 on is output k−273 itself
// (that word was fed then). So the first 607 outputs of
// rand.NewSource(1) give every state word, each used exactly once as
// the fed word, and XORing out seed 1's Lehmer part leaves the table.
var randCooked = func() (cooked [simd.FibLong]uint64) {
	const long, short = simd.FibLong, simd.FibShort
	src := rand.NewSource(1).(rand.Source64)
	var out, state [long]uint64
	for k := range out {
		out[k] = src.Uint64()
	}
	fed := func(k int) int { return (long - short - 1 - k + long) % long }
	for k := short; k < long; k++ {
		state[fed(k)] = out[k] - out[k-short]
	}
	for k := 0; k < short; k++ {
		state[fed(k)] = out[k] - state[long-1-k]
	}
	lehmerState(&cooked, 1)
	for i := range cooked {
		cooked[i] ^= state[i]
	}
	return cooked
}()
