package wifi

import "fmt"

// standardPerms holds the §17.3.5.7 permutation for the four standard
// modulation orders (NBPSC 1, 2, 4, 6; NCBPS is always 48×NBPSC),
// indexed by NBPSC and built at package init. perm[k] is the output
// position of input bit k. The table is pure index arithmetic, so
// precomputing it cannot change a single bit of the interleaved stream;
// serving it from a fixed array keeps the per-symbol lookup a bounds
// check instead of a map load with interface-key hashing, which showed
// up at ~3% of the batch WiFi packet profile.
var standardPerms [7][]int32

func init() {
	for _, nbpsc := range []int{1, 2, 4, 6} {
		standardPerms[nbpsc] = computePerm(48*nbpsc, nbpsc)
	}
}

func computePerm(n, nbpsc int) []int32 {
	s := nbpsc / 2
	if s < 1 {
		s = 1
	}
	perm := make([]int32, n)
	for k := 0; k < n; k++ {
		i := (n/16)*(k%16) + k/16
		j := s*(i/s) + (i+n-16*i/n)%s
		perm[k] = int32(j)
	}
	return perm
}

func permFor(r Rate) []int32 {
	if r.NBPSC >= 1 && r.NBPSC <= 6 && r.NCBPS == 48*r.NBPSC {
		if p := standardPerms[r.NBPSC]; p != nil {
			return p
		}
	}
	// Non-standard shapes (none among Rates) compute fresh per call.
	return computePerm(r.NCBPS, r.NBPSC)
}

// Interleave applies the 802.11a/g per-symbol block interleaver
// (§17.3.5.7) to one OFDM symbol's worth of coded bits. The two
// permutations ensure adjacent coded bits land on non-adjacent subcarriers
// and alternate between constellation bit significances. Interleaving never
// crosses a symbol boundary — the property FreeRider relies on when it
// spreads one tag bit over whole OFDM symbols.
func Interleave(in []byte, r Rate) ([]byte, error) {
	out := make([]byte, r.NCBPS)
	if err := interleaveInto(out, in, r); err != nil {
		return nil, err
	}
	return out, nil
}

// interleaveInto is Interleave writing into caller storage (len NCBPS).
func interleaveInto(out, in []byte, r Rate) error {
	n := r.NCBPS
	if len(in) != n {
		return fmt.Errorf("wifi: interleaver input %d bits, want NCBPS=%d", len(in), n)
	}
	perm := permFor(r)
	for k, j := range perm {
		out[j] = in[k]
	}
	return nil
}

// deinterleaveInto inverts Interleave for one OFDM symbol, writing into
// caller storage (len NCBPS).
func deinterleaveInto(out, in []byte, r Rate) error {
	n := r.NCBPS
	if len(in) != n {
		return fmt.Errorf("wifi: deinterleaver input %d bits, want NCBPS=%d", len(in), n)
	}
	perm := permFor(r)
	for k, j := range perm {
		out[k] = in[j]
	}
	return nil
}

// InterleaveSymbols applies the interleaver across a multi-symbol stream
// whose length must be a multiple of NCBPS.
func InterleaveSymbols(in []byte, r Rate) ([]byte, error) {
	if len(in)%r.NCBPS != 0 {
		return nil, fmt.Errorf("wifi: stream length %d not a multiple of NCBPS=%d", len(in), r.NCBPS)
	}
	out := make([]byte, 0, len(in))
	for off := 0; off < len(in); off += r.NCBPS {
		sym, err := Interleave(in[off:off+r.NCBPS], r)
		if err != nil {
			return nil, err
		}
		out = append(out, sym...)
	}
	return out, nil
}
