package fec

import (
	"sync"

	"repro/internal/signal"
)

// maxParity bounds the redundancy of any code this package will build: 64
// parity symbols is t=32, already far beyond what a single excitation
// packet's chunk can carry. maxN is the full-length RS(255, ·) block.
const (
	maxParity = 64
	maxN      = 255
)

// Generator polynomials are cached per parity count: g(x) = Π_{i=0}^{p-1}
// (x − α^i), stored low-degree-first with the monic leading coefficient
// omitted. A session only ever uses one or two parity sizes so the cache
// stays tiny.
var (
	genMu  sync.Mutex
	genTab = map[int][]byte{}
)

func generator(parity int) []byte {
	genMu.Lock()
	defer genMu.Unlock()
	if g, ok := genTab[parity]; ok {
		return g
	}
	// Build Π(x − α^i) low-degree-first (g[j] multiplies x^j).
	g := make([]byte, 1, parity+1)
	g[0] = 1
	for i := 0; i < parity; i++ {
		root := gfPow(i)
		g = append(g, 0)
		for j := len(g) - 1; j >= 1; j-- {
			g[j] = g[j-1] ^ gfMul(g[j], root)
		}
		g[0] = gfMul(g[0], root)
	}
	// Drop the monic x^parity term; the LFSR only needs the remainder
	// coefficients.
	lfsr := make([]byte, parity)
	copy(lfsr, g[:parity])
	genTab[parity] = lfsr
	return lfsr
}

// rsEncode computes the systematic parity for data into parity (whose
// length selects the code's redundancy). The transmitted codeword is data
// followed by parity, highest-degree symbol first — the usual shortened-RS
// convention where rec[0] multiplies x^{n-1}.
func rsEncode(data []byte, parity []byte) {
	for i := range parity {
		parity[i] = 0
	}
	p := len(parity)
	if p == 0 {
		return
	}
	g := generator(p)
	// Polynomial long division of data(x)·x^p by g(x): parity holds the
	// running remainder, parity[0] the highest-degree coefficient.
	for _, d := range data {
		fb := d ^ parity[0]
		copy(parity, parity[1:])
		parity[p-1] = 0
		if fb != 0 {
			lf := int(logTab[fb])
			for j := 0; j < p; j++ {
				if c := g[p-1-j]; c != 0 {
					parity[j] ^= expTab[lf+int(logTab[c])]
				}
			}
		}
	}
}

// rsScratch is the per-decode working set, pooled so the hot path stays
// allocation-free. Arrays are sized for the largest standard code.
type rsScratch struct {
	synd  [maxParity]byte
	lam   [maxParity + 1]byte
	prev  [maxParity + 1]byte
	tmp   [maxParity + 1]byte
	omega [maxParity]byte
	locs  [maxParity]int
	orig  [maxN]byte
}

var scratchPool = signal.FreeList[*rsScratch]{New: func() *rsScratch { return new(rsScratch) }}

// syndromes fills out[:parity] with S_i = rec(α^i) via Horner (rec[0] is
// the highest-degree symbol) and reports whether any is nonzero.
func syndromes(rec []byte, out []byte) bool {
	any := false
	for i := range out {
		x := gfPow(i)
		var acc byte
		for _, r := range rec {
			acc = gfMul(acc, x) ^ r
		}
		out[i] = acc
		if acc != 0 {
			any = true
		}
	}
	return any
}

// rsDecode corrects rec (a shortened systematic codeword: data followed by
// `parity` trailing parity symbols) in place. It returns the number of
// symbol corrections applied and whether the result is a valid codeword.
// On failure rec is left exactly as received so the caller can fall back
// to the raw hard-decision symbols or retransmit.
func rsDecode(rec []byte, parity int) (corrected int, ok bool) {
	n := len(rec)
	if parity <= 0 {
		return 0, true
	}
	if parity > maxParity || n > maxN || n <= parity {
		return 0, false
	}
	sc := scratchPool.Get()
	defer scratchPool.Put(sc)

	synd := sc.synd[:parity]
	if !syndromes(rec, synd) {
		return 0, true
	}

	// Berlekamp–Massey for the error locator Λ(x), low-degree-first.
	lam := sc.lam[:]
	prev := sc.prev[:]
	tmp := sc.tmp[:]
	for i := range lam {
		lam[i], prev[i] = 0, 0
	}
	lam[0], prev[0] = 1, 1
	var (
		l int
		m      = 1
		b byte = 1
	)
	for i := 0; i < parity; i++ {
		var delta byte
		for j := 0; j <= l; j++ {
			delta ^= gfMul(lam[j], synd[i-j])
		}
		if delta == 0 {
			m++
			continue
		}
		coef := gfDiv(delta, b)
		if 2*l <= i {
			copy(tmp, lam)
			for j := 0; j+m <= maxParity; j++ {
				lam[j+m] ^= gfMul(coef, prev[j])
			}
			copy(prev, tmp)
			l = i + 1 - l
			b = delta
			m = 1
		} else {
			for j := 0; j+m <= maxParity; j++ {
				lam[j+m] ^= gfMul(coef, prev[j])
			}
			m++
		}
	}
	deg := maxParity
	for deg > 0 && lam[deg] == 0 {
		deg--
	}
	if deg == 0 || deg != l || deg > parity/2 {
		return 0, false
	}

	// Chien search over the shortened positions: symbol index k (0 = the
	// x^{n-1} coefficient) has locator X_k = α^{n-1-k}; it is an error
	// position iff Λ(X_k^{-1}) = 0.
	locs := sc.locs[:0]
	for k := 0; k < n; k++ {
		xi := gfInvPow(n - 1 - k)
		var acc byte
		for j := deg; j >= 0; j-- {
			acc = gfMul(acc, xi) ^ lam[j]
		}
		if acc == 0 {
			locs = append(locs, k)
			if len(locs) > deg {
				return 0, false
			}
		}
	}
	if len(locs) != deg {
		return 0, false
	}

	// Forney with first root α^0: Ω(x) = S(x)·Λ(x) mod x^{2t} truncated
	// to degree deg-1; e_k = X_k · Ω(X_k^{-1}) / Λ'(X_k^{-1}).
	omega := sc.omega[:deg]
	for i := 0; i < deg; i++ {
		var acc byte
		for j := 0; j <= i && j <= deg; j++ {
			acc ^= gfMul(lam[j], synd[i-j])
		}
		omega[i] = acc
	}

	copy(sc.orig[:n], rec)
	for _, k := range locs {
		e := n - 1 - k
		xi := gfInvPow(e)
		var om byte
		for j := deg - 1; j >= 0; j-- {
			om = gfMul(om, xi) ^ omega[j]
		}
		// Λ'(x) in char 2 keeps only odd-power terms: Σ λ_j x^{j-1}.
		var dl byte
		xp := byte(1) // xi^{j-1} for the current odd j
		for j := 1; j <= deg; j += 2 {
			dl ^= gfMul(lam[j], xp)
			xp = gfMul(xp, gfMul(xi, xi))
		}
		if dl == 0 {
			return 0, false
		}
		rec[k] ^= gfMul(gfPow(e), gfDiv(om, dl))
	}

	// Re-verify: a pattern with more than t errors can slip through
	// BM/Chien as a plausible miscorrection but leaves nonzero syndromes.
	// Roll the buffer back so the caller sees the untouched input.
	if syndromes(rec, synd) {
		copy(rec, sc.orig[:n])
		return 0, false
	}
	return deg, true
}

// gfInvPow returns α^{-e} for e >= 0.
func gfInvPow(e int) byte { return expTab[(255-e%255)%255] }
