package wifi

import (
	"fmt"
	"math"
	"slices"
)

// Constellation normalisation factors (§17.3.5.8): scale so every
// constellation has unit average power. Indexed by the Modulation
// constants — an array lookup instead of the historical map, which showed
// up as mapaccess in the per-point demap profile.
var kmod = [4]float64{
	BPSK:  1,
	QPSK:  1 / math.Sqrt2,
	QAM16: 1 / math.Sqrt(10),
	QAM64: 1 / math.Sqrt(42),
}

// Gray-coded PAM levels per axis. Index is the integer formed by the bits
// (first bit = MSB of the index), value is the unnormalised level.
var (
	pam2 = []float64{-1, 1}                      // 1 bit
	pam4 = []float64{-3, -1, 3, 1}               // 2 bits: 00,01,10,11
	pam8 = []float64{-7, -5, -1, -3, 7, 5, 1, 3} // 3 bits: 000..111
)

// Scaled level tables: levels[i]·kmod, the exact products the mapper and
// slicer historically computed per point, hoisted to package init. The
// products are computed with the same float64 multiply, so every decision
// threshold is bit-identical to the on-the-fly form.
var (
	pam2BPSK = scaleLevels(pam2, kmod[BPSK])
	pam2QPSK = scaleLevels(pam2, kmod[QPSK])
	pam4K    = scaleLevels(pam4, kmod[QAM16])
	pam8K    = scaleLevels(pam8, kmod[QAM64])
)

func scaleLevels(levels []float64, k float64) []float64 {
	out := make([]float64, len(levels))
	for i, l := range levels {
		out[i] = l * k
	}
	return out
}

// scaledLevelsFor returns the kmod-scaled per-axis levels and bits per
// axis for a modulation.
func scaledLevelsFor(m Modulation) ([]float64, int, error) {
	switch m {
	case BPSK:
		return pam2BPSK, 1, nil
	case QPSK:
		return pam2QPSK, 1, nil
	case QAM16:
		return pam4K, 2, nil
	case QAM64:
		return pam8K, 3, nil
	}
	return nil, 0, fmt.Errorf("wifi: unknown modulation %v", m)
}

// nearestLevel returns the index of the scaled level closest to v. The
// scan order and strict-< best comparison are exactly the historical
// slicer's, so decisions — including ties, which keep the lowest index —
// are identical.
func nearestLevel(scaled []float64, v float64) int {
	best, bestD := 0, math.Inf(1)
	for idx, l := range scaled {
		d := math.Abs(v - l)
		if d < bestD {
			best, bestD = idx, d
		}
	}
	return best
}

// nearest2 is nearestLevel specialised to the two-level BPSK/QPSK axes.
// Equivalence with the general scan: for finite v the comparison
// |v-l1| < |v-l0| picks index 1 exactly when the scan's strict-< update
// fires (ties keep index 0); for v = ±Inf both distances are +Inf and for
// v = NaN both are NaN, so the comparison is false and index 0 wins —
// the same index the scan's never-true strict-< leaves behind.
func nearest2(scaled []float64, v float64) byte {
	if math.Abs(v-scaled[1]) < math.Abs(v-scaled[0]) {
		return 1
	}
	return 0
}

// demapPointInto appends pt's NBPSC hard-decision bits to dst without
// allocating (given capacity). The nearest-level scan over the
// init-time-scaled levels compares exactly the values the historical
// per-point demapper recomputed, so decisions — and therefore bits — are
// identical.
func demapPointInto(dst []byte, pt complex128, m Modulation) ([]byte, error) {
	scaled, perAxis, err := scaledLevelsFor(m)
	if err != nil {
		return nil, err
	}
	idx := nearestLevel(scaled, real(pt))
	for i := 0; i < perAxis; i++ {
		dst = append(dst, byte(idx>>(perAxis-1-i))&1)
	}
	if m != BPSK {
		idx = nearestLevel(scaled, imag(pt))
		for i := 0; i < perAxis; i++ {
			dst = append(dst, byte(idx>>(perAxis-1-i))&1)
		}
	}
	return dst, nil
}

// demapSymbolInto appends one symbol's NCBPS hard bits to dst. The points
// pass by pointer — per-symbol 48-element array copies were a visible
// slice of the decode profile — and are only read.
func demapSymbolInto(dst []byte, pts *[NumData]complex128, r Rate) ([]byte, error) {
	// The one-bit-per-axis constellations dominate the decode profile
	// (the calibrated links run 6 and 12 Mbps); slice them with the
	// two-level comparison in whole-symbol loops instead of the general
	// scan, without a call per point (48 per symbol, hundreds of symbols
	// per packet).
	switch r.Modulation {
	case BPSK:
		for i := range pts {
			dst = append(dst, nearest2(pam2BPSK, real(pts[i])))
		}
		return dst, nil
	case QPSK:
		for i := range pts {
			dst = append(dst, nearest2(pam2QPSK, real(pts[i])), nearest2(pam2QPSK, imag(pts[i])))
		}
		return dst, nil
	}
	for i := 0; i < NumData; i++ {
		var err error
		dst, err = demapPointInto(dst, pts[i], r.Modulation)
		if err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// demapGainsInto appends one symbol's NCBPS hard bits to dst, as
// demapSymbolInto does, and writes each bit's trellis gain (0 → −1,
// 1 → +1) into its rate-1/2 slot of q, as putGains does. BPSK and QPSK
// do both in one pass over the points, with nearest2's decisions;
// QAM demaps, then writes the gains.
func demapGainsInto(dst []byte, q []int16, pts *[NumData]complex128, r Rate, slots []uint16) ([]byte, error) {
	n := len(dst)
	switch r.Modulation {
	case BPSK:
		dst = slices.Grow(dst, NumData)[:n+NumData]
		out, slots := dst[n:], slots[:NumData]
		for i := range pts {
			b := nearest2(pam2BPSK, real(pts[i]))
			out[i] = b
			q[slots[i]] = int16(b)*2 - 1
		}
		return dst, nil
	case QPSK:
		dst = slices.Grow(dst, 2*NumData)[:n+2*NumData]
		out, slots := dst[n:], slots[:2*NumData]
		for i := range pts {
			b0 := nearest2(pam2QPSK, real(pts[i]))
			b1 := nearest2(pam2QPSK, imag(pts[i]))
			out[2*i], out[2*i+1] = b0, b1
			q[slots[2*i]] = int16(b0)*2 - 1
			q[slots[2*i+1]] = int16(b1)*2 - 1
		}
		return dst, nil
	}
	dst, err := demapSymbolInto(dst, pts, r)
	if err != nil {
		return nil, err
	}
	putGains(q, dst[n:], slots)
	return dst, nil
}

// putGains writes the trellis gain of each hard bit of one demapped symbol
// (0 → −1, 1 → +1) into its rate-1/2 slot of q.
func putGains(q []int16, sym []byte, slots []uint16) {
	sym = sym[:len(slots)]
	for j, k := range slots {
		q[k] = int16(sym[j])*2 - 1
	}
}
