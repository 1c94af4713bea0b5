package main

import (
	"math"
	"sort"
	"time"
)

// ms converts a duration to fractional milliseconds, the unit every
// latency metric is reported in.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted; 0 for an empty sample.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// trimmedMean is the mean after discarding the slowest tenth of the
// sample, rounded up. Fold latencies are bimodal — an in-place update
// re-mines one unit or both — so their median jumps between the modes from
// one seed to the next while the mean moves with the mixture; trimming
// keeps one host stall (100 ms and more on the reference VM) from dragging
// it, also when a run has only four samples. Samples of one or two are
// averaged whole; 0 for an empty sample.
func trimmedMean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := sortedCopy(ds)
	if len(s) >= 3 {
		s = s[:len(s)-(len(s)+9)/10]
	}
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return sum / time.Duration(len(s))
}

// sortedCopy returns an ascending copy of ds.
func sortedCopy(ds []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), ds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// tailLadder is the percentiles the picker chooses from.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// pickTail returns the highest percentile of tailLadder that still has
// at least ten samples beyond it, so a reported tail never rests on a
// handful of outliers. A sample too small even for the median (fewer
// than 20) yields 50.
func pickTail(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100+1e-9 >= 10 { // 1e-9: 100 * 0.1 must count as 10
			best = p
		}
	}
	return best
}

// medianFloat returns the median of xs (mean of the middle pair for even
// counts); 0 for none.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the
// exclusive method the driver uses) and returns Q1 and Q3. It needs at
// least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := min(max(int(math.Floor(pos)), 1), n-1)
		// Taken after the clamp, as Python does: a rank beyond the last pair
		// extrapolates from it (n = 2 and 3).
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median — the
// steadiness figure the driver checks against a metric's bound.
func spread(xs []float64) float64 {
	med := medianFloat(xs)
	if len(xs) < 2 || med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}
