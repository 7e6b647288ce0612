package signal

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/simd"
)

// The stream buffer: a block of noiseBlock fresh values behind the
// FibLong-value window, with the seeded window placed at noiseBase so
// that both start at a multiple of 64 (noiseHead = 640) and every block
// has whole words of rejection flags. A refill comes only once every
// value is read and slides the buffer by exactly noiseBlock values, so
// unread values never sit before noiseHead and the flags cover the
// fresh block alone. A stream holds ~42 KB, 16 KB of it AddAWGN's
// packed draws.
const (
	noiseBlock = 2048
	noiseHead  = (simd.FibLong + 63) / 64 * 64
	noiseBase  = noiseHead - simd.FibLong
)

// Noise is math/rand's pseudo-random stream generated in blocks: Seed,
// Float64 and NormFloat64 return exactly what the same calls on
// rand.New(rand.NewSource(seed)) return, and AddAWGN continues the
// stream a loop of NormFloat64 calls would draw.
//
// math/rand's source is an additive lagged-Fibonacci generator, so its
// last FibLong outputs are its whole state. Seed writes the state
// rand.NewSource(seed) starts from (RandSource's seeding) into the
// window in stream order, and every value from the first on comes from
// the recurrence, a block at a time (simd.LagFill). Normal draws use
// the same Marsaglia–Tsang ziggurat with tables built at init by the
// paper's setup recurrence. Each block also gets one flag bit per value
// marking the draws the ziggurat's fast path rejects (simd.ZigReject).
// AddAWGN resolves only those draws one at a time (mark), packs the
// draws that yield a normal (simd.Pack) and adds them in bulk
// (simd.NormAdd).
//
// A Noise is not safe for concurrent use. GetNoise and PutNoise recycle
// them.
type Noise struct {
	y     [noiseHead + noiseBlock]uint64
	rej   [noiseBlock / 64]uint64 // bit k%64 of rej[k/64]: y[noiseHead+k] leaves the fast path
	rejAt [noiseBlock + 4]uint16  // the block's flagged draws in order, then end
	ri    int                     // mark's cursor in rejAt
	drop  [noiseBlock / 64]uint64 // bit k%64 of drop[k/64]: y[noiseHead+k] yields no normal (mark)
	kept  [noiseBlock]uint64      // AddAWGN's packed draws
	pos   int                     // next unread value in y
	end   int                     // y[:end] holds the stream; y[end-FibLong:end] is the state
}

// NewNoise returns a stream seeded with seed.
func NewNoise(seed int64) *Noise {
	n := new(Noise)
	n.Seed(seed)
	return n
}

var noisePool = FreeList[*Noise]{New: func() *Noise { return NewNoise(0) }}

// GetNoise returns a recycled stream seeded with seed. Seed resets the
// whole state, so it is stream-identical to NewNoise(seed).
func GetNoise(seed int64) *Noise {
	n := noisePool.Get()
	n.Seed(seed)
	return n
}

// PutNoise returns a stream from GetNoise for reuse.
func PutNoise(n *Noise) { noisePool.Put(n) }

// Seed restarts the stream at rand.NewSource(seed)'s first output. The
// window takes the seeded state in stream order: output k is
// y[k−FibLong] + y[k−FibShort] from k = 0 on, with y[m] = state word
// fed(FibLong+m) for m < 0 (see randCooked), so the first refill draws
// output 0 onward.
func (n *Noise) Seed(seed int64) {
	w := n.y[noiseBase:noiseHead]
	seedState((*[simd.FibLong]uint64)(w), seed)
	// y[m] for m = −FibLong..−1 is word fed(FibLong+m): words
	// 333, 332, ..., 0, then 606, ..., 334.
	slices.Reverse(w[:simd.FibLong-simd.FibShort])
	slices.Reverse(w[simd.FibLong-simd.FibShort:])
	n.pos, n.end = noiseHead, noiseHead
}

// refill fills and flags a fresh block behind the last FibLong values
// once every value is read, first sliding the window back to the head
// of the buffer once the buffer is full, and lists the block's rejected
// draws for mark.
func (n *Noise) refill() {
	if n.end == len(n.y) {
		copy(n.y[:noiseHead], n.y[noiseBlock:])
		n.pos -= noiseBlock
	}
	if simd.Enabled() {
		simd.LagFill(n.y[noiseBase:])
	} else {
		lagFillGo(n.y[noiseBase:])
	}
	zigReject(n.rej[:], n.y[noiseHead:])
	n.end = len(n.y)
	n.listRejects()
}

// listRejects writes the index of every flagged draw of the block to
// rejAt in order, followed by end, and rewinds mark's cursor. A flag
// word holds 1.7 of them on average, so each word's first four are
// written without a branch on the bits (the slots past the word's count
// are overwritten by the next word) and only a fuller word loops.
func (n *Noise) listRejects() {
	k := 0
	for w, b := range n.rej {
		at := uint16(noiseHead + 64*w)
		c := bits.OnesCount64(b)
		s := n.rejAt[k : k+4]
		for q := range s {
			s[q] = at + uint16(bits.TrailingZeros64(b))
			b &= b - 1
		}
		for q := k + 4; b != 0; q++ {
			n.rejAt[q] = at + uint16(bits.TrailingZeros64(b))
			b &= b - 1
		}
		k += c
	}
	n.rejAt[k] = uint16(n.end)
	n.ri = 0
}

// lagFillGo is simd.LagFill's definition.
func lagFillGo(y []uint64) {
	for k := simd.FibLong; k < len(y); k++ {
		y[k] = y[k-simd.FibLong] + y[k-simd.FibShort]
	}
}

// zigReject flags the values of u that leave the ziggurat's fast path.
func zigReject(flags, u []uint64) {
	if simd.Enabled() {
		simd.ZigReject(flags, u, &zigK)
		return
	}
	zigRejectGo(flags, u)
}

// zigRejectGo is simd.ZigReject's definition: NormFloat64's fast-path
// test, negated, one bit per draw.
func zigRejectGo(flags, u []uint64) {
	for w := range flags {
		var b uint64
		for k, v := range u[64*w : 64*w+64] {
			if j := int32(v >> 31); absInt32(j) >= zigK[j&0x7F] {
				b |= 1 << k
			}
		}
		flags[w] = b
	}
}

// next returns the stream's next raw value (rand.Source64.Uint64).
func (n *Noise) next() uint64 {
	if n.pos == n.end {
		n.refill()
	}
	v := n.y[n.pos]
	n.pos++
	return v
}

// Float64 is rand.Rand.Float64: a value in [0, 1) from the next 63 bits,
// drawing again on the rare value that rounds up to 1.
func (n *Noise) Float64() float64 {
	for {
		if f := uniform(n.next()); f < 1 {
			return f
		}
	}
}

// uniform is one draw's Float64 value before the redraw test: its low 63
// bits over 2⁶³, which rounds to 1 for the top 2⁹ of them.
func uniform(v uint64) float64 { return float64(int64(v&(1<<63-1))) / (1 << 63) }

// NormFloat64 is rand.Rand.NormFloat64: a standard normal value by the
// ziggurat, its wedge and base-strip tail included.
func (n *Noise) NormFloat64() float64 {
	for {
		j := int32(n.next() >> 31) // rand.Rand.Uint32, possibly negative
		i := j & 0x7F
		x := float64(j) * float64(zigW[i])
		if absInt32(j) < zigK[i] {
			return x
		}
		if i == 0 {
			for {
				x = -math.Log(n.Float64()) * (1.0 / zigR)
				y := -math.Log(n.Float64())
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return zigR + x
			}
			return -zigR - x
		}
		if wedgeAccepts(i, x, zigF[i]+float32(n.Float64())*(zigF[i-1]-zigF[i])) {
			return x
		}
	}
}

// wedgeAccepts is the ziggurat's wedge test for a draw x of strip i,
// lhs < float32(math.Exp(-.5*x*x)), decided without math.Exp when the
// strip's bounds lo ≤ math.Exp(-.5*x*x) ≤ hi settle it: float32
// rounding is monotone, so float32(lo) > lhs accepts and
// float32(hi) ≤ lhs rejects exactly as the exact test would. Only the
// draws between the two rounded bounds (under 1% of wedge tests) call
// math.Exp.
func wedgeAccepts(i int32, x float64, lhs float32) bool {
	lo, hi := zigWedge[i].at(x)
	if b2i(lo <= lhs)&b2i(lhs < hi) != 0 { // rare, unlike either test alone
		return lhs < float32(math.Exp(-.5*x*x))
	}
	return lo > lhs
}

// at returns the strip's bounds at draw x, rounded as the test rounds
// its sides.
func (w *wedgeBound) at(x float64) (lo, hi float32) {
	t := x * x
	return float32(w.lo0 + w.lo1*t), float32(w.hi0 + w.hi1*t)
}

// wedgeBound holds one strip's bounds on math.Exp(-t/2) as lines in
// t = x·x: lo0 + lo1·t below, hi0 + hi1·t above.
type wedgeBound struct{ lo0, lo1, hi0, hi1 float64 }

// wedgeMargin widens every bound. The lines are exact bounds on
// g(t) = exp(−t/2) in real arithmetic; what separates them from the
// computed values stays under 2⁻⁴⁷: math.Exp's error (within one ulp of
// g ≤ 1) at the nodes and at the tested t, the slope's rounding (a slope
// off by δ moves the chord by at most δ·(tb − ta), the rounding of
// g(tb) − g(ta)), and the few roundings that build and evaluate each
// line from values below 8. The margin, 2⁻⁴⁰, sits far below float32's
// spacing near the test's left side (lhs ≥ fn[127] > 2⁻⁹, so at least
// 2⁻³²), so it costs no decisions.
const wedgeMargin = 0x1p-40

// zigWedge holds the wedge bounds of strips 1–127 (entry 0 is unused:
// the base strip has a tail, not a wedge).
var zigWedge = wedgeBounds()

// wedgeBounds builds each strip's lines over the t = x·x its wedge
// draws can reach, |x| from kn[i]·wn[i] to 2³¹·wn[i] as the draw computes
// x. g(t) = exp(−t/2) is convex in t, so on [ta, tb] its chord lies
// above it and any tangent below it; the tangent is taken where g's
// slope equals the chord's, which minimises the gap between the two.
func wedgeBounds() (b [128]wedgeBound) {
	g := func(t float64) float64 { return math.Exp(-.5 * t) }
	for i := 1; i < len(b); i++ {
		xa := float64(zigK[i]) * float64(zigW[i])
		xb := float64(1<<31) * float64(zigW[i])
		ta, tb := xa*xa, xb*xb
		slope := (g(tb) - g(ta)) / (tb - ta)
		tm := -2 * math.Log(-2*slope) // g'(tm) = −g(tm)/2 = slope
		b[i] = wedgeBound{
			lo0: g(tm)*(1+tm/2) - wedgeMargin,
			lo1: -g(tm) / 2,
			hi0: g(ta) - slope*ta + wedgeMargin,
			hi1: slope,
		}
	}
	return b
}

func absInt32(i int32) uint32 {
	if i < 0 {
		return uint32(-i)
	}
	return uint32(i)
}

// zigR is the right edge of the ziggurat's base strip, and zigV the
// common area of its 128 strips (Marsaglia & Tsang 2000).
const (
	zigR = 3.442619855899
	zigV = 9.91256303526217e-3
)

// zigK, zigW and zigF are the ziggurat's acceptance bounds, widths and
// heights, entry for entry math/rand's kn, wn and fn.
var zigK, zigW, zigF = zigguratTables()

// zigguratTables is Marsaglia and Tsang's table setup (zigset) for the
// 128-strip normal ziggurat, walking the strip edges down from zigR.
func zigguratTables() (kn [128]uint32, wn, fn [128]float32) {
	const m1 = 1 << 31
	dn, tn := zigR, zigR
	q := zigV / math.Exp(-0.5*dn*dn)
	kn[0] = uint32((dn / q) * m1)
	wn[0] = float32(q / m1)
	wn[127] = float32(dn / m1)
	fn[0] = 1
	fn[127] = float32(math.Exp(-0.5 * dn * dn))
	for i := 126; i >= 1; i-- {
		dn = math.Sqrt(-2 * math.Log(zigV/dn+math.Exp(-0.5*dn*dn)))
		kn[i+1] = uint32((dn / tn) * m1)
		tn = dn
		fn[i] = float32(math.Exp(-0.5 * dn * dn))
		wn[i] = float32(dn / m1)
	}
	return kn, wn, fn
}

// AddAWGN adds circularly-symmetric complex Gaussian noise with total mean
// power noisePower (linear, split evenly between I and Q) from the stream
// n, and returns the receiver. Sample i gets the stream's next two
// normals, real part first — the draws and the rounding of
//
//	s.Samples[i] += complex(n.NormFloat64()*sigma, n.NormFloat64()*sigma)
//
// taken a block of the stream at a time in three passes: mark resolves
// the draws the fast path rejects, pack (simd.Pack) moves the draws
// that yield a normal to the front of n.kept, and normAdd adds them in
// one run. The sample a run ends in (a base-strip tail, a wedge cut by
// the block's end, or the block's end itself inside a sample) takes the
// scalar NormFloat64 for what the run did not cover.
func (s *Signal) AddAWGN(noisePower float64, n *Noise) *Signal {
	if noisePower <= 0 {
		return s
	}
	sigma := math.Sqrt(noisePower / 2) // per real dimension so E|n|^2 = noisePower
	x := s.Samples
	for len(x) > 0 {
		if n.pos == n.end {
			n.refill()
		}
		lo := n.pos &^ 63
		hi, got, scalar := n.mark(2 * len(x))
		kept := n.kept[:pack(n.kept[:], n.y[lo:hi], n.drop[(lo-noiseHead)/64:])]
		normAdd(x[:got/2], kept, sigma)
		x = x[got/2:]
		n.pos = hi
		if odd := got%2 == 1; odd || scalar {
			// A run that ends inside a sample leaves its real part in the
			// run's last draw; the scalar path draws the rest.
			var re float64
			if odd {
				re = zigValue(kept[got-1])
			} else {
				re = n.NormFloat64()
			}
			x[0] += complex(re*sigma, n.NormFloat64()*sigma)
			x = x[1:]
		}
	}
	return s
}

// mark resolves the draws y[n.pos:] the fast path rejects, in stream
// order, until it has found want normals, reaches a draw only the scalar
// NormFloat64 can resolve, or runs out of the block. It returns the end
// hi of the draws it resolved, the normals got among them and whether
// the draw at hi needs the scalar path; drop then marks, over y[lo:hi]
// with lo = n.pos rounded down to a flag word, every draw that yields
// no normal: the ones before n.pos, each wedge's uniform and each draw
// the wedge rejects. A draw the wedge accepts yields its fast-path
// value, so it stays for normAdd. The scalar path takes the base-strip
// tails, a wedge whose uniform lies past the block and a uniform that
// rounds to 1 (Float64 draws again).
//
// The walk visits only the listed draws (rejAt), skipping one that a
// wedge before it took as its uniform. nd counts the draws of y[lo:]
// dropped so far, so the normals before draw d number d − lo − nd.
func (n *Noise) mark(want int) (hi, got int, scalar bool) {
	p, lo := n.pos, n.pos&^63
	nd := p - lo
	w := (lo - noiseHead) / 64
	clear(n.drop[w:])
	n.drop[w] = 1<<nd - 1
	r := n.ri
	for int(n.rejAt[r]) < p {
		r++
	}
	for ; ; r++ {
		d := int(n.rejAt[r])
		if d < p {
			continue
		}
		if got = d - lo - nd; got >= want {
			hi, got = lo+nd+want, want
			break
		}
		hi = d
		if d == n.end {
			break
		}
		j := int32(n.y[d] >> 31)
		i := j & 0x7F
		if i == 0 || d+1 == n.end {
			scalar = true
			break
		}
		f := uniform(n.y[d+1])
		if f == 1 {
			scalar = true
			break
		}
		// About half the wedge tests accept, so the outcome is counted
		// rather than branched on; wedgeAccepts runs only where the bounds
		// leave it to math.Exp.
		x, lhs := float64(j)*float64(zigW[i]), zigF[i]+float32(f)*(zigF[i-1]-zigF[i])
		below, above := zigWedge[i].at(x)
		a := b2i(below > lhs)
		if b2i(below <= lhs)&b2i(lhs < above) != 0 {
			a = b2i(wedgeAccepts(i, x, lhs))
		}
		nd += 2 - a
		e := d - noiseHead
		n.drop[e/64] |= uint64(1-a) << (e % 64)
		n.drop[(e+1)/64] |= 1 << ((e + 1) % 64)
		p = d + 2
	}
	n.ri = r
	return hi, got, scalar
}

// pack left-packs the draws of u that drop leaves clear into dst (see
// simd.Pack).
func pack(dst, u, drop []uint64) int {
	if simd.Enabled() {
		return simd.Pack(dst, u, drop)
	}
	return packGo(dst, u, drop)
}

// packGo is simd.Pack's definition: every draw is written at the count
// of the kept ones before it, which only a kept draw advances.
func packGo(dst, u, drop []uint64) int {
	k := 0
	for i, v := range u {
		dst[k] = v
		k += int(^drop[i/64] >> (i % 64) & 1)
	}
	return k
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// zigValue is the ziggurat's fast-path value of draw v.
func zigValue(v uint64) float64 {
	j := int32(v >> 31)
	return float64(j) * float64(zigW[j&0x7F])
}

// normAdd adds the fast-path normals of a run of accepted samples (see
// simd.NormAdd).
func normAdd(x []complex128, u []uint64, sigma float64) {
	if simd.Enabled() {
		simd.NormAdd(x, u, &zigW, sigma)
		return
	}
	normAddGo(x, u, sigma)
}

// normAddGo is simd.NormAdd's definition: NormFloat64's fast-path value
// for both of a sample's draws.
func normAddGo(x []complex128, u []uint64, sigma float64) {
	u = u[:2*len(x)]
	for q := range x {
		j0, j1 := int32(u[2*q]>>31), int32(u[2*q+1]>>31)
		re := float64(j0) * float64(zigW[j0&0x7F])
		im := float64(j1) * float64(zigW[j1&0x7F])
		x[q] += complex(re*sigma, im*sigma)
	}
}

// NoiseFloorDBm returns the thermal noise power for the given bandwidth in
// Hz and receiver noise figure in dB: -174 dBm/Hz + 10·log10(BW) + NF.
func NoiseFloorDBm(bandwidthHz, noiseFigureDB float64) float64 {
	return -174 + PowerDB(bandwidthHz) + noiseFigureDB
}
