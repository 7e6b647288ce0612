package fec

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzRSRoundTrip drives the encode→corrupt→decode loop from fuzzer
// entropy: random (k, parity) geometry, random payload, then a mix of
// symbol erasures (full-symbol corruption) and soft-value perturbations
// (bit flips, the post-slice image of a noisy soft decision). Invariants:
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
				rec[p] ^= 1 << uint(rng.Intn(8)) // single soft-slice bit flip
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

// FuzzCombinerSlice checks that chase-combining arbitrary soft-value
// streams never panics and agrees with the sign convention: N identical
// copies slice like one, and the first copy's combined decode is the hard
// decode of its own slicing.
func FuzzCombinerSlice(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, uint8(2))
	wide := make([]byte, 512)
	for i := range wide {
		wide[i] = byte(i * 37)
	}
	f.Add(wide, uint8(7))
	f.Fuzz(func(t *testing.T, raw []byte, attempts uint8) {
		lay, err := LayoutFor(len(raw)/2, Config{N: 15, K: 11, Interleave: 1 + int(attempts)%3})
		if err != nil {
			return
		}
		soft := make([]int16, lay.CodedBits())
		for i := range soft {
			soft[i] = int16(uint16(raw[2*i]) | uint16(raw[2*i+1])<<8)
		}
		hard := make([]byte, len(soft))
		sliceSoft(soft, hard)
		var c Chase
		c.Reset(lay)
		n := 1 + int(attempts)%4
		for a := 0; a < n; a++ {
			combined, alone, ok := c.Add(hard, soft)
			if !ok {
				t.Fatal("full-length copy rejected")
			}
			if a == 0 && (!bytes.Equal(combined.Data, alone.Data) || combined.OK != alone.OK || combined.Corrected != alone.Corrected) {
				t.Fatalf("first copy: combined %+v, alone %+v", combined, alone)
			}
		}
		for i := range hard {
			if c.sliced[i] != hard[i] {
				t.Fatalf("%d identical copies sliced differently at %d", n, i)
			}
		}
	})
}

// sliceSoft slices a single soft vector without accumulation: what a solo
// decode of one attempt produces, the oracle for the combiner's
// single-attempt identity.
func sliceSoft(soft []int16, dst []byte) {
	for i, s := range soft {
		if s < 0 {
			dst[i] = 1
		} else {
			dst[i] = 0
		}
	}
}
