package signal

import "math"

// EnergyScreen lets a template scan skip the exact window-energy sum at
// positions that provably cannot beat the best quality found so far.
// The scans (zigbee Detect, bluetooth detect and wifi detectTiming)
// rate position i as
//
//	q = num / sqrt(pw · tplPow)
//
// with num the position's correlation, pw its window energy summed term
// by term in sample order and tplPow the template energy, and keep a
// position only when q > best (detectTiming's first LTF copy only when
// q ≥ 0.5, so it passes the largest double below 0.5 as best). The
// scan hands the screen each sample's energy when the sample enters the
// window (Enter) and again when it leaves (Leave). The screen keeps two running prefix sums of those
// energies: lead through the window's last sample and trail up to its
// first. They add the same terms in the same order, so trail is lead's
// value from one template length earlier, and their difference bounds
// pw from below, and so q from above, without touching the window.
//
// The bound (DESIGN §8.3). Let N be the number of samples scanned,
// n = N + 1, u = 2⁻⁵³ and γ = n·u/(1 − n·u), the recursive-summation
// bound; n·u ≤ 1/16, so γ ≤ (16/15)·n·u. Each prefix sum is within γ
// of the exact sum of its terms, so the exact window sum T of the
// screen's terms satisfies T ≥ D − r·lead with D = lead − trail
// rounded and r = u + 2γ/(1 − γ) ≤ 3·n·u. The exact loop sums at most
// N terms, each the screen's term or within one rounding of the square
// it comes from, so pw ≥ (1 − γ)·T. With lo = D − fl(4·n·u·lead)
// rounded and kP = fl((1 − 4·n·u)·tplPow), (1 + u)²(1 − 4·n·u) ≤ 1 − γ
// gives lo·kP ≤ pw·tplPow. Rounding is monotone, so
//
//	q ≤ fl(num / fl(sqrt(fl(lo · kP))))
//
// for num ≥ 0, and a position whose bound is ≤ best cannot win (the
// update needs a strict >). The slack 4·n·u in place of 3·n·u covers
// the roundings of the screen's own arithmetic; lead ≥ 2⁻⁹⁰⁰ keeps
// 4·n·u·lead out of the subnormal range.
type EnergyScreen struct {
	r, kP       float64
	lead, trail float64
	nz          int // nonzero energies in the window
}

// NewEnergyScreen returns the screen for a scan over n samples against
// a template of energy tplPow. A scan too long for the bound gets a
// screen that never rules a position out.
func NewEnergyScreen(n int, tplPow float64) EnergyScreen {
	nu := float64(n+1) * 0x1p-53 // exact: n+1 < 2⁵³
	if nu > 1.0/16 {
		return EnergyScreen{}
	}
	return EnergyScreen{r: 4 * nu, kP: (1 - 4*nu) * tplPow}
}

// Energy is one complex sample's energy, the term a complex scan sums
// into its window energy and hands to Enter and Leave.
func Energy(v complex128) float64 { return real(v)*real(v) + imag(v)*imag(v) }

// Enter adds the energy of the sample joining the window.
func (s *EnergyScreen) Enter(e float64) {
	s.lead += e
	if e != 0 {
		s.nz++
	}
}

// Leave removes the energy of the sample leaving the window: the value
// Enter was given for it, in the order Enter was given them.
func (s *EnergyScreen) Leave(e float64) {
	s.trail += e
	if e != 0 {
		s.nz--
	}
}

// Empty reports whether every energy in the window is exactly zero, so
// that the window's sum is exactly zero. It counts the nonzero energies
// (NaN among them) instead of trusting a prefix difference.
func (s *EnergyScreen) Empty() bool { return s.nz == 0 }

// Beaten reports whether the position with correlation num provably
// rates a quality ≤ best. It is false whenever the proof does not go
// through: a non-finite num or lead (a non-finite energy makes every
// later prefix sum non-finite, so trail needs no check), a lead so
// small its slack would be subnormal, or a prefix difference lost to
// rounding.
func (s *EnergyScreen) Beaten(num, best float64) bool {
	if math.IsNaN(num) || math.IsInf(num, 0) || !(s.lead <= math.MaxFloat64) || s.lead < 0x1p-900 {
		return false
	}
	if num <= 0 {
		return true // q ≤ 0 ≤ best
	}
	lo := (s.lead - s.trail) - s.r*s.lead
	if !(lo > 0) {
		return false
	}
	return num/math.Sqrt(lo*s.kP) <= best
}

// squaredMargin shrinks BeatenSquared's bound so that the roundings of
// the squared magnitude (two squares and a sum), of math.Hypot (a few
// ulps), of Beaten's square root and of the bound's own products, each
// at most 2⁻⁵³ relative in the normal range it is confined to, cannot
// carry a position across it: together they stay under 2⁻⁴⁸.
const squaredMargin = 1 - 0x1p-40

// BeatenSquared is Beaten for a correlation given by its squared
// magnitude num2 = re² + im² (Energy of the correlation), without the
// square root of num: it is true only where Beaten(math.Hypot(re, im),
// best) is. It tests num2 ≤ best²·(1 − 2⁻⁴⁰)·fl(lo·kP), with lo and kP
// as in Beaten, and is false outside the range where every rounding in
// that chain is relative: num2 below 2⁻⁹⁶⁰ (a square may have lost its
// bits to underflow) or non-finite, best² below 2⁻¹⁰⁰⁰, a subnormal
// fl(lo·kP), and Beaten's own exclusions.
func (s *EnergyScreen) BeatenSquared(num2, best float64) bool {
	if !(num2 >= 0x1p-960) || num2 > math.MaxFloat64 || !(s.lead <= math.MaxFloat64) || s.lead < 0x1p-900 {
		return false
	}
	b2 := best * best * squaredMargin
	if !(b2 >= 0x1p-1000) {
		return false
	}
	lo := (s.lead - s.trail) - s.r*s.lead
	if !(lo > 0) {
		return false
	}
	bound := lo * s.kP
	if bound < 0x1p-1022 {
		return false // subnormal: its rounding is not relative
	}
	return num2 <= b2*bound
}
