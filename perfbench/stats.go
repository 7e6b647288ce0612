package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minTail is how many samples must lie beyond a reported tail percentile.
// A percentile with fewer samples beyond it is decided by one or two
// outliers, so tail selection caps the requested percentile there.
const minTail = 10

// quantile is one reported order statistic: its value, the percentile it
// actually sits at and the sample count it was taken from.
type quantile struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
}

// median returns the nearest-rank median of xs (0 for no samples).
func median(xs []float64) float64 {
	return percentile(xs, 50).Value
}

// percentile returns the nearest-rank p-th percentile of xs without
// modifying it.
func percentile(xs []float64, p float64) quantile {
	return atRank(xs, nearestRank(len(xs), p))
}

// tailPercentile returns the p-th percentile of xs, or the highest
// percentile that still has minTail samples beyond it when p has fewer:
// with 400 samples a requested p99 becomes p97.5. It never drops below the
// median, so tiny sample sets report their median.
func tailPercentile(xs []float64, p float64) quantile {
	n := len(xs)
	rank := nearestRank(n, p)
	if limit := n - minTail; rank > limit {
		rank = limit
	}
	if mid := nearestRank(n, 50); rank < mid {
		rank = mid
	}
	return atRank(xs, rank)
}

// atRank returns the sample of 1-based rank among xs sorted ascending.
func atRank(xs []float64, rank int) quantile {
	n := len(xs)
	if n == 0 {
		return quantile{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile{Value: s[rank-1], Percentile: 100 * float64(rank) / float64(n), Samples: n}
}

// medianQuantile returns the median, by value, of per-window order
// statistics.
func medianQuantile(qs []quantile) quantile {
	if len(qs) == 0 {
		return quantile{}
	}
	s := append([]quantile(nil), qs...)
	sort.Slice(s, func(i, j int) bool { return s[i].Value < s[j].Value })
	return s[nearestRank(len(s), 50)-1]
}

// nearestRank is the 1-based rank of the p-th percentile of n samples.
func nearestRank(n int, p float64) int {
	rank := int(float64(n)*p/100 + 0.999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
