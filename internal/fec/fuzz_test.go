package fec

import (
	"math/rand"
	"testing"
)

// FuzzRSRoundTrip drives the encode→corrupt→decode loop from fuzzer
// entropy: random (k, parity) geometry, random payload, then a mix of
// symbol erasures (full-symbol corruption) and single bit flips (one
// wrong hard decision in a tag window). Invariants:
// decode never panics; <= t corruptions always decode back to the exact
// payload; any claimed success is a true codeword (zero syndromes); any
// failure leaves the buffer untouched.
func FuzzRSRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(4), uint8(2))
	f.Add(int64(2), uint8(13), uint8(2), uint8(0))
	f.Add(int64(3), uint8(100), uint8(16), uint8(12))
	f.Fuzz(func(t *testing.T, seed int64, kb, pb, errsB uint8) {
		k := 1 + int(kb)%120
		parity := 2 + 2*(int(pb)%8) // even, 2..16
		errs := int(errsB) % (parity + 2)
		rng := rand.New(rand.NewSource(seed))

		data := make([]byte, k)
		rng.Read(data)
		clean := make([]byte, k+parity)
		copy(clean, data)
		rsEncode(data, clean[k:])

		rec := append([]byte(nil), clean...)
		perm := rng.Perm(len(rec))[:errs]
		for i, p := range perm {
			if i%2 == 0 {
				rec[p] ^= byte(1 + rng.Intn(255)) // symbol erasure image
			} else {
				rec[p] ^= 1 << uint(rng.Intn(8)) // single wrong hard decision
			}
		}
		before := append([]byte(nil), rec...)

		n, ok := rsDecode(rec, parity)
		switch {
		case errs <= parity/2:
			if !ok {
				t.Fatalf("k=%d p=%d errs=%d: decode failed within t", k, parity, errs)
			}
			for i := range clean {
				if rec[i] != clean[i] {
					t.Fatalf("k=%d p=%d errs=%d: wrong symbol %d", k, parity, errs, i)
				}
			}
			if n > errs {
				t.Fatalf("corrected %d > injected %d", n, errs)
			}
		case ok:
			var synd [maxParity]byte
			if syndromes(rec, synd[:parity]) {
				t.Fatal("claimed success but syndromes nonzero")
			}
		default:
			for i := range rec {
				if rec[i] != before[i] {
					t.Fatalf("failed decode mutated buffer at %d", i)
				}
			}
		}
	})
}
