package main

import (
	"math"
	"sort"
)

// median returns the middle value of v (the mean of the two middle
// values for an even count), or 0 for an empty slice. v is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three cut points of v exactly as Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), which is
// how the driver sizes run-to-run spread. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range of v as a share of its median: the
// run-to-run variation a bound is compared against. Fewer than two
// values, or a zero median, have no spread.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// quantileNs returns the q-quantile of an ascending latency sample by
// nearest rank, so the answer is always a latency that was observed.
func quantileNs(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted))-1e-9)) - 1 // the epsilon absorbs 0.99*1000 = 990.0000000000001
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailQuantile picks the percentile to report as a sample's tail: the
// highest of p50, p90, p99 that still has at least ten samples beyond
// it. Fewer than ten samples beyond a percentile make it the reading of
// a handful of outliers, not of the distribution.
func tailQuantile(n int) float64 {
	best := 0.5
	for _, permille := range []int{900, 990} {
		if n*(1000-permille)/1000 >= 10 {
			best = float64(permille) / 1000
		}
	}
	return best
}

// latencySummary holds what one latency sample reports, in microseconds.
type latencySummary struct {
	p50, max float64
	tail     float64 // the percentile tailQuantile picks for the sample's size
}

// summarize sorts ns in place and reduces it to a latencySummary.
func summarize(ns []int64) latencySummary {
	if len(ns) == 0 {
		return latencySummary{}
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	return latencySummary{
		p50:  float64(quantileNs(ns, 0.5)) / 1e3,
		tail: float64(quantileNs(ns, tailQuantile(len(ns)))) / 1e3,
		max:  float64(ns[len(ns)-1]) / 1e3,
	}
}
