// Package stats provides the summary statistics the evaluation harness
// reports: empirical CDFs, quantiles, histograms/PDFs and Jain's fairness
// index (Fig 17b).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Quantile returns the q-quantile (0 <= q <= 1) by linear interpolation of
// the sorted sample.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: quantile of empty sample")
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %g outside [0,1]", q)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo], nil
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac, nil
}

// Median returns the 0.5 quantile.
func Median(xs []float64) (float64, error) { return Quantile(xs, 0.5) }

// CDFPoint is one step of an empirical CDF.
type CDFPoint struct {
	X float64 // value
	P float64 // P(sample <= X)
}

// CDF returns the empirical CDF of the sample as sorted step points.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := make([]CDFPoint, len(s))
	for i, x := range s {
		out[i] = CDFPoint{X: x, P: float64(i+1) / float64(len(s))}
	}
	return out
}

// Histogram bins the sample into nBins equal-width bins over [min, max],
// returning the bin centres and normalised densities (a PDF estimate whose
// integral over the range is 1). Samples outside the range are clamped to
// the edge bins.
func Histogram(xs []float64, min, max float64, nBins int) (centres, density []float64, err error) {
	if nBins <= 0 {
		return nil, nil, fmt.Errorf("stats: nBins %d must be positive", nBins)
	}
	if max <= min {
		return nil, nil, fmt.Errorf("stats: empty range [%g, %g]", min, max)
	}
	width := (max - min) / float64(nBins)
	counts := make([]float64, nBins)
	for _, x := range xs {
		i := int((x - min) / width)
		if i < 0 {
			i = 0
		}
		if i >= nBins {
			i = nBins - 1
		}
		counts[i]++
	}
	centres = make([]float64, nBins)
	density = make([]float64, nBins)
	total := float64(len(xs))
	for i := range counts {
		centres[i] = min + (float64(i)+0.5)*width
		if total > 0 {
			density[i] = counts[i] / total / width
		}
	}
	return centres, density, nil
}

// JainIndex returns Jain's fairness index: (Σx)² / (n·Σx²). It is 1 when
// all shares are equal and 1/n when one member takes everything.
func JainIndex(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: fairness of empty sample")
	}
	var sum, sumSq float64
	for _, x := range xs {
		if x < 0 {
			return 0, fmt.Errorf("stats: negative share %g", x)
		}
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1, nil // all zero: degenerate but perfectly equal
	}
	return sum * sum / (float64(len(xs)) * sumSq), nil
}
