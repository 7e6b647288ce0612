package signal

import (
	"math"
	"math/bits"
	"math/rand"

	"repro/internal/simd"
)

// The stream buffer: a block of noiseBlock fresh values behind the
// FibLong-value window, with the seeded window placed at noiseBase so
// that both start at a multiple of 64 (noiseHead = 640) and every block
// has whole words of rejection flags. A refill slides the buffer by
// exactly noiseBlock values and noiseBlock/64 flag words. With its
// source a stream holds ~26 KB.
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
// last FibLong outputs are its whole state. Seed takes the first FibLong
// outputs from a real rand.Source (its seeding is math/rand's own), and
// every later value comes from the recurrence, a block at a time
// (simd.LagFill). Normal draws use the same Marsaglia–Tsang ziggurat
// with tables built at init by the paper's setup recurrence. Each block
// also gets one flag bit per value marking the draws the ziggurat's
// fast path rejects (simd.ZigReject), so AddAWGN knows every run of
// fast-path samples before it reaches it: it adds a run in bulk
// (simd.NormAdd) and hands the sample that ends it to the scalar
// NormFloat64.
//
// A Noise is not safe for concurrent use. GetNoise and PutNoise recycle
// them.
type Noise struct {
	src rand.Source64
	y   [noiseHead + noiseBlock]uint64
	rej [(noiseHead + noiseBlock) / 64]uint64 // bit k%64 of rej[k/64]: y[k] leaves the fast path
	pos int                                   // next unread value in y
	end int                                   // y[:end] holds the stream; y[end-FibLong:end] is the state
}

// NewNoise returns a stream seeded with seed.
func NewNoise(seed int64) *Noise {
	n := &Noise{src: rand.NewSource(0).(rand.Source64)}
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

// Seed restarts the stream at rand.NewSource(seed)'s first output.
func (n *Noise) Seed(seed int64) {
	n.src.Seed(seed)
	for i := noiseBase; i < noiseHead; i++ {
		n.y[i] = n.src.Uint64()
	}
	zigReject(n.rej[:noiseHead/64], n.y[:noiseHead])
	n.pos, n.end = noiseBase, noiseHead
}

// refill fills and flags a fresh block behind the last FibLong values,
// first sliding the buffer (the fewer than FibLong unread values
// included) back by a block once it is full.
func (n *Noise) refill() {
	if n.end == len(n.y) {
		copy(n.y[:noiseHead], n.y[noiseBlock:])
		copy(n.rej[:noiseHead/64], n.rej[noiseBlock/64:])
		n.pos -= noiseBlock
	}
	if simd.Enabled() {
		simd.LagFill(n.y[noiseBase:])
	} else {
		lagFillGo(n.y[noiseBase:])
	}
	zigReject(n.rej[noiseHead/64:], n.y[noiseHead:])
	n.end = len(n.y)
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

// nextReject returns the index of the first unread value the fast path
// rejects, or end when the buffer holds none.
func (n *Noise) nextReject() int {
	w := n.pos / 64
	b := n.rej[w] &^ (1<<(n.pos%64) - 1)
	for b == 0 {
		if w++; 64*w >= n.end {
			return n.end
		}
		b = n.rej[w]
	}
	return 64*w + bits.TrailingZeros64(b)
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
		if f := float64(int64(n.next()&(1<<63-1))) / (1 << 63); f < 1 {
			return f
		}
	}
}

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
		if zigF[i]+float32(n.Float64())*(zigF[i-1]-zigF[i]) < float32(math.Exp(-.5*x*x)) {
			return x
		}
	}
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
// taken a run of fast-path samples at a time.
func (s *Signal) AddAWGN(noisePower float64, n *Noise) *Signal {
	if noisePower <= 0 {
		return s
	}
	sigma := math.Sqrt(noisePower / 2) // per real dimension so E|n|^2 = noisePower
	x := s.Samples
	for len(x) > 0 {
		if n.end-n.pos < 2 {
			n.refill()
		}
		d := n.nextReject()
		r := min(len(x), (d-n.pos)/2)
		normAdd(x[:r], n.y[n.pos:], sigma)
		n.pos += 2 * r
		x = x[r:]
		if len(x) > 0 && d < n.end {
			// Draw d, in this sample, left the fast path: the sample takes
			// the scalar NormFloat64, wedge and tail included.
			x[0] += complex(n.NormFloat64()*sigma, n.NormFloat64()*sigma)
			x = x[1:]
		}
	}
	return s
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
