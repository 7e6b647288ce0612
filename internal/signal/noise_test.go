package signal

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"repro/internal/simd"
)

// awgnRef is the loop AddAWGN replaced, kept as the reference its
// blocks must reproduce: one NormFloat64 per part, real part first,
// from math/rand's own generator.
func awgnRef(x []complex128, noisePower float64, rng *rand.Rand) {
	if noisePower <= 0 {
		return
	}
	sigma := math.Sqrt(noisePower / 2)
	for i := range x {
		x[i] += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
}

// checkAWGN adds noise to a copy of x with AddAWGN in every dispatch
// mode and with awgnRef, starting both streams skip draws into seed's
// stream, and requires identical samples and identical stream positions
// afterwards.
func checkAWGN(t testing.TB, x []complex128, noisePower float64, seed int64, skip int) {
	t.Helper()
	want := append([]complex128(nil), x...)
	rng := rand.New(rand.NewSource(seed))
	for range skip {
		rng.Int63()
	}
	awgnRef(want, noisePower, rng)
	after := rng.Int63()
	eachDispatchMode(t, func(mode string) {
		got := append([]complex128(nil), x...)
		n := NewNoise(seed)
		for range skip {
			n.next()
		}
		(&Signal{Samples: got}).AddAWGN(noisePower, n)
		requireSameSamples(t, mode+" AddAWGN", got, want)
		if v := int64(n.next() & (1<<63 - 1)); v != after {
			t.Fatalf("%s: stream after AddAWGN at %d, want %d", mode, v, after)
		}
	})
}

// TestNoiseMatchesMathRand interleaves Float64, NormFloat64 and AddAWGN
// over several block refills and requires every value to equal
// rand.Rand's for the same seed.
func TestNoiseMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, -5, 42, 1 << 40} {
		rng := rand.New(rand.NewSource(seed))
		n := NewNoise(seed)
		for round := range 40 {
			for range 300 + 17*round {
				if a, b := n.NormFloat64(), rng.NormFloat64(); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("seed %d: NormFloat64 %v, want %v", seed, a, b)
				}
			}
			for range 50 + round {
				if a, b := n.Float64(), rng.Float64(); a != b {
					t.Fatalf("seed %d: Float64 %v, want %v", seed, a, b)
				}
			}
			x := make([]complex128, 100+97*round)
			want := append([]complex128(nil), x...)
			(&Signal{Samples: x}).AddAWGN(0.3, n)
			awgnRef(want, 0.3, rng)
			requireSameSamples(t, "interleaved AddAWGN", x, want)
		}
	}
}

// TestNoiseSeedResets reseeds a used stream, as the pool does.
func TestNoiseSeedResets(t *testing.T) {
	n := GetNoise(9)
	for range 5000 {
		n.NormFloat64()
	}
	PutNoise(n)
	n = GetNoise(3)
	defer PutNoise(n)
	rng := rand.New(rand.NewSource(3))
	for range 5000 {
		if a, b := n.NormFloat64(), rng.NormFloat64(); a != b {
			t.Fatalf("reseeded stream %v, want %v", a, b)
		}
	}
}

// TestZigguratTablesMatchMathRand compares the tables built at init
// with the kn, wn and fn literals in the toolchain's math/rand source,
// entry for entry.
func TestZigguratTablesMatchMathRand(t *testing.T) {
	path := filepath.Join(runtime.GOROOT(), "src", "math", "rand", "normal.go")
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Skipf("math/rand source unavailable: %v", err)
	}
	seen := map[string]int{}
	ast.Inspect(f, func(node ast.Node) bool {
		vs, ok := node.(*ast.ValueSpec)
		if !ok || len(vs.Values) != 1 {
			return true
		}
		lit, ok := vs.Values[0].(*ast.CompositeLit)
		if !ok {
			return true
		}
		name := vs.Names[0].Name
		for i, e := range lit.Elts {
			v := e.(*ast.BasicLit).Value
			switch name {
			case "kn":
				want, err := strconv.ParseUint(v, 0, 32)
				if err != nil || uint32(want) != zigK[i] {
					t.Errorf("kn[%d] = %#x, math/rand has %s", i, zigK[i], v)
				}
			case "wn", "fn":
				want, err := strconv.ParseFloat(v, 32)
				got := zigW[i]
				if name == "fn" {
					got = zigF[i]
				}
				if err != nil || float32(want) != got {
					t.Errorf("%s[%d] = %v, math/rand has %s", name, i, got, v)
				}
			default:
				return true
			}
			seen[name]++
		}
		return true
	})
	for _, name := range []string{"kn", "wn", "fn"} {
		if seen[name] != 128 {
			t.Errorf("math/rand's %s: compared %d entries, want 128", name, seen[name])
		}
	}
}

// TestAddAWGNPinned is the pinned differential run: 200 seeds of 25,000
// samples (10⁷ normal draws) against awgnRef in every dispatch mode.
func TestAddAWGNPinned(t *testing.T) {
	const seeds, samples = 200, 25000
	x := make([]complex128, samples)
	for i := range x {
		x[i] = complex(float64(i%13)-6, float64(i%7)*0.25)
	}
	for seed := range int64(seeds) {
		checkAWGN(t, x, 1e-3*float64(seed+1), seed*7919-300, int(seed%5))
	}
}

// TestAddAWGNBlockEdges runs the lengths and stream offsets around the
// first refill (sample 303 straddles the seeded window's end) and later
// block boundaries.
func TestAddAWGNBlockEdges(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 302, 303, 304, 305, 1024, 1327, 1328, 1329, 2352, 5000} {
		for _, skip := range []int{0, 1, 2, 605, 606, 607, 2654} {
			checkAWGN(t, make([]complex128, n), 0.5, int64(n*31+skip), skip)
		}
	}
}

func TestAddAWGNZeroAllocs(t *testing.T) {
	s := New(20e6, 5000)
	allocs := testing.AllocsPerRun(20, func() {
		n := GetNoise(4)
		s.AddAWGN(0.1, n)
		PutNoise(n)
	})
	if allocs != 0 {
		t.Fatalf("pooled AddAWGN allocates %.1f times, want 0", allocs)
	}
}

// FuzzAWGN drives seed, length, stream offset and noise power through
// AddAWGN in both dispatch modes and demands the reference loop's
// samples and stream position. Powers cover zero, negative, subnormal,
// tiny, ordinary, huge and non-finite values.
func FuzzAWGN(f *testing.F) {
	for _, n := range []uint16{0, 1, 303, 304, 305, 1327, 1328, 1329, 2400} {
		f.Add(int64(n), n, uint16(0), uint8(n%9), int64(0))
	}
	f.Add(int64(-1), uint16(700), uint16(606), uint8(4), int64(math.Float64bits(-0.5)))
	f.Add(int64(77), uint16(3000), uint16(2653), uint8(3), int64(math.Float64bits(3.25)))
	f.Fuzz(func(t *testing.T, seed int64, n, skip uint16, kind uint8, bits int64) {
		var power float64
		switch kind % 9 {
		case 0:
			power = 0
		case 1:
			power = math.SmallestNonzeroFloat64
		case 2:
			power = 0x1p-1060 // subnormal
		case 3:
			power = 1e300
		case 4:
			power = math.MaxFloat64
		case 5:
			power = math.Inf(1)
		case 6:
			power = math.NaN()
		case 7:
			power = -1
		default:
			power = math.Float64frombits(uint64(bits))
		}
		x := make([]complex128, int(n)%4096)
		for i := range x {
			x[i] = complex(float64(i%5), -float64(i%3))
		}
		checkAWGN(t, x, power, seed, int(skip)%4096)
	})
}

// wedgeGrid returns the draws x of strip i the bound tests walk: |j|
// every step from kn[i] to 2³¹ (j of both signs), plus the two wedge
// edges and the float64 neighbours of each.
func wedgeGrid(i int, step int64) []float64 {
	w := float64(zigW[i])
	var xs []float64
	for a := int64(zigK[i]); a <= 1<<31; a += step {
		xs = append(xs, float64(a)*w, -float64(a)*w)
	}
	for _, e := range []float64{float64(zigK[i]) * w, float64(1<<31) * w} {
		xs = append(xs, e, math.Nextafter(e, 0), math.Nextafter(e, 4), -e)
	}
	return xs
}

// TestWedgeBoundsHold checks lo ≤ math.Exp(-.5*x*x) ≤ hi, each side
// evaluated as wedgeAccepts evaluates it, for every strip on a dense
// grid of its wedge plus the edges and their float neighbours.
func TestWedgeBoundsHold(t *testing.T) {
	for i := 1; i < 128; i++ {
		step := max(1, (int64(1<<31)-int64(zigK[i]))/4000)
		for _, x := range wedgeGrid(i, step) {
			tt, w := x*x, &zigWedge[i]
			e := math.Exp(-.5 * x * x)
			if lo, hi := w.lo0+w.lo1*tt, w.hi0+w.hi1*tt; !(lo <= e && e <= hi) {
				t.Fatalf("strip %d, x = %v: bounds [%v, %v] miss math.Exp = %v", i, x, lo, hi, e)
			}
		}
	}
}

// TestWedgeDecisionExact holds wedgeAccepts to the test it replaces,
// lhs < float32(math.Exp(-.5*x*x)), with lhs on, just below and just
// above the rounded exponential and on and around each rounded bound,
// so all three branches (bound accepts, bound rejects, math.Exp
// decides) meet the cases where a decision is closest. It also holds
// the bounds to their purpose: over lhs spread across each strip's
// height, under 2% of decisions may reach math.Exp.
func TestWedgeDecisionExact(t *testing.T) {
	next := func(f float32, dir float32) float32 { return math.Nextafter32(f, dir) }
	var undecided, total int
	for i := 1; i < 128; i++ {
		w := &zigWedge[i]
		step := max(1, (int64(1<<31)-int64(zigK[i]))/500)
		for _, x := range wedgeGrid(i, step) {
			tt := x * x
			e := float32(math.Exp(-.5 * x * x))
			lo, hi := float32(w.lo0+w.lo1*tt), float32(w.hi0+w.hi1*tt)
			for _, ref := range []float32{e, lo, hi} {
				for _, lhs := range []float32{ref, next(ref, 0), next(ref, 2), next(next(ref, 0), 0), next(next(ref, 2), 2)} {
					if got, want := wedgeAccepts(int32(i), x, lhs), lhs < e; got != want {
						t.Fatalf("strip %d, x = %v, lhs = %v: wedgeAccepts = %v, math.Exp test = %v", i, x, lhs, got, want)
					}
				}
			}
			for k := 0; k < 64; k++ {
				lhs := zigF[i] + (float32(k)+0.5)/64*(zigF[i-1]-zigF[i])
				if got, want := wedgeAccepts(int32(i), x, lhs), lhs < e; got != want {
					t.Fatalf("strip %d, x = %v, lhs = %v: wedgeAccepts = %v, math.Exp test = %v", i, x, lhs, got, want)
				}
				if lo <= lhs && lhs < hi {
					undecided++
				}
				total++
			}
		}
	}
	if frac := float64(undecided) / float64(total); frac > 0.02 {
		t.Fatalf("the bounds leave %.2f%% of wedge decisions to math.Exp, want under 2%%", 100*frac)
	}
}

// replaySource is a rand.Source64 reading a Noise's raw values, so
// rand.New over it runs math/rand's own Float64 and NormFloat64 on
// whatever values the stream holds, crafted ones included.
type replaySource struct{ n *Noise }

func (r replaySource) Int63() int64   { return int64(r.n.next() & (1<<63 - 1)) }
func (r replaySource) Uint64() uint64 { return r.n.next() }
func (r replaySource) Seed(int64)     {}

// rawDraw is a raw value whose normal draw has j = int32(v>>31) = j, and
// rawUniform one whose Float64 is f (to within 2⁻⁶³).
func rawDraw(j int32) uint64      { return uint64(uint32(j)) << 31 }
func rawUniform(f float64) uint64 { return uint64(f * (1 << 63)) }

// Crafted draws: wedge draws of strip i at the strip's outer edge
// (rejected under a uniform near 1) and its inner edge (accepted under a
// uniform near 0), a base-strip draw (the tail), and a uniform that is
// itself a flagged draw.
func outerDraw(i int32) uint64 { return rawDraw(0x7FFFFF80 | i) }
func innerDraw(i int32) uint64 { return rawDraw((int32(zigK[i])+127)&^127 | i) }

var (
	tailDraw     = rawDraw(-0x7FFFFF80)
	flaggedU     = outerDraw(9)
	uniformNear1 = rawUniform(0.999)
	uniformNear0 = rawUniform(1e-4)
	uniformTo1   = uint64(1<<63 - 1) // Float64 rounds it to 1 and draws again
)

// TestAddAWGNCraftedStream writes raw values into a stream's block,
// flags it with zigReject, and holds AddAWGN plus a following Float64
// to math/rand's NormFloat64 loop over the same values: the cases the
// seeded runs reach rarely or never. Each case runs at four shifts, from
// two stream positions, with sample counts that end the call on, just
// before and just after the crafted draws as well as past the block.
func TestAddAWGNCraftedStream(t *testing.T) {
	for i := int32(1); i < 128; i++ {
		for _, c := range []struct {
			v, u   uint64
			accept bool
		}{{outerDraw(i), uniformNear1, false}, {innerDraw(i), uniformNear0, true}} {
			if j := int32(c.v >> 31); j&0x7F != i || absInt32(j) < zigK[i] {
				t.Fatalf("strip %d: crafted draw j = %d is not in the wedge", i, j)
			}
			lhs := zigF[i] + float32(uniform(c.u))*(zigF[i-1]-zigF[i])
			if wedgeAccepts(i, zigValue(c.v), lhs) != c.accept {
				t.Fatalf("strip %d: crafted wedge draw accepted = %v, want %v", i, !c.accept, c.accept)
			}
		}
	}
	const end = noiseHead + noiseBlock
	cases := []struct {
		name    string
		at      int
		vals    []uint64
		flagged []int // offsets into vals that must carry a rejection flag
	}{
		{"flagged uniform", noiseHead + 300,
			[]uint64{innerDraw(9), flaggedU, outerDraw(33), flaggedU, outerDraw(50), uniformNear1},
			[]int{0, 1, 2, 3, 4}},
		{"consecutive wedge rejections", noiseHead + 900,
			[]uint64{outerDraw(5), uniformNear1, outerDraw(17), uniformNear1, outerDraw(90), uniformNear1, innerDraw(3), uniformNear0},
			[]int{0, 2, 4, 6}},
		{"base-strip tails", noiseHead + 1200,
			[]uint64{tailDraw, rawUniform(0.9), rawUniform(0.5), tailDraw, rawUniform(1e-6), uniformNear1, rawUniform(0.9), rawUniform(0.5)},
			[]int{0, 3}},
		{"tail loop across a refill", end - 3,
			[]uint64{tailDraw, rawUniform(1e-6), uniformNear1},
			[]int{0}},
		{"rejection at the block's last draw", end - 1,
			[]uint64{outerDraw(40)},
			[]int{0}},
		{"wedge uniform at the block's last draw", end - 2,
			[]uint64{outerDraw(40), uniformNear1},
			[]int{0}},
		{"wedge uniform rounding to 1", noiseHead + 1500,
			[]uint64{innerDraw(12), uniformTo1, uniformNear0, outerDraw(70), uniformTo1, uniformTo1, uniformNear1, tailDraw, uniformTo1, rawUniform(0.9), rawUniform(0.5)},
			[]int{0, 3, 7}},
	}
	for _, c := range cases {
		for shift := range 4 {
			at := c.at - shift
			if at+len(c.vals) > end {
				continue
			}
			for _, skip := range []int{0, 37} {
				mid := (at - noiseHead - skip) / 2
				for _, samples := range []int{mid - 2, mid - 1, mid, mid + 1, mid + 2, mid + 4, noiseBlock, 3000} {
					if samples > 0 {
						checkCrafted(t, c.name, at, c.vals, c.flagged, samples, skip)
					}
				}
			}
		}
	}
}

func checkCrafted(t *testing.T, name string, at int, vals []uint64, flagged []int, samples, skip int) {
	t.Helper()
	eachDispatchMode(t, func(mode string) {
		label := fmt.Sprintf("%s: %s at %d, %d samples after %d draws", mode, name, at, samples, skip)
		n := NewNoise(int64(at + samples))
		n.refill()
		copy(n.y[at:], vals)
		zigReject(n.rej[:], n.y[noiseHead:])
		n.listRejects()
		for _, k := range flagged {
			if d := at + k - noiseHead; n.rej[d/64]>>(d%64)&1 == 0 {
				t.Fatalf("%s: crafted draw %d is not flagged", label, k)
			}
		}
		for range skip {
			n.next()
		}
		ref := *n
		rng := rand.New(replaySource{&ref})
		x := make([]complex128, samples)
		for i := range x {
			x[i] = complex(float64(i%7), -float64(i%3))
		}
		want := append([]complex128(nil), x...)
		awgnRef(want, 0.7, rng)
		(&Signal{Samples: x}).AddAWGN(0.7, n)
		requireSameSamples(t, label, x, want)
		if a, b := n.Float64(), rng.Float64(); a != b {
			t.Fatalf("%s: Float64 after AddAWGN %v, want %v", label, a, b)
		}
	})
}

// FuzzPackDispatch holds simd.Pack to its Go definition, packGo: drop
// masks of any density (empty and full words included) over 0–4100
// draws, starting off the 32-byte grid, packed into a separate buffer
// (itself off the grid) and in place. The kept draws and their count
// must match, and nothing past the draws may be written.
func FuzzPackDispatch(f *testing.F) {
	f.Add(uint16(0), uint8(0), uint8(0), int64(1))
	f.Add(uint16(7), uint8(1), uint8(128), int64(2))
	f.Add(uint16(64), uint8(2), uint8(255), int64(3))
	f.Add(uint16(2048), uint8(3), uint8(8), int64(4))
	f.Add(uint16(4100), uint8(5), uint8(40), int64(5))
	f.Fuzz(func(t *testing.T, n uint16, off, density uint8, seed int64) {
		if !simd.Enabled() {
			t.Skip("AVX2 kernels not dispatched on this build")
		}
		length := int(n) % 4101
		rng := rand.New(rand.NewSource(seed))
		drop := make([]uint64, (length+63)/64)
		for i := range length {
			if rng.Intn(255) < int(density) {
				drop[i/64] |= 1 << (i % 64)
			}
		}
		if len(drop) > 0 {
			drop[rng.Intn(len(drop))] = [2]uint64{0, ^uint64(0)}[rng.Intn(2)]
		}
		uo, do := int(off%4), int(off/4%4)
		buf := make([]uint64, uo+length+1)
		for i := range buf {
			buf[i] = rng.Uint64()
		}
		u := buf[uo : uo+length]
		want := make([]uint64, length)
		k := packGo(want, u, drop)

		dst := make([]uint64, do+length+1)
		dst[do+length] = 7
		if got := simd.Pack(dst[do:do+length], u, drop); got != k {
			t.Fatalf("%d draws: Pack kept %d, packGo %d", length, got, k)
		}
		if !slices.Equal(dst[do:do+k], want[:k]) {
			t.Fatalf("%d draws: Pack's kept draws differ from packGo's", length)
		}
		if dst[do+length] != 7 {
			t.Fatalf("%d draws: Pack wrote past len(u)", length)
		}

		last := buf[uo+length]
		if got := simd.Pack(u, u, drop); got != k || !slices.Equal(u[:k], want[:k]) {
			t.Fatalf("%d draws: in-place Pack kept %d draws unlike packGo's %d", length, got, k)
		}
		if buf[uo+length] != last {
			t.Fatalf("%d draws: in-place Pack wrote past len(u)", length)
		}
	})
}
