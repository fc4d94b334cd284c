package main

import (
	"sort"
	"time"

	"github.com/ksan-net/ksan/internal/hist"
)

// median returns the median of vals (the mean of the middle two for an
// even count), or 0 for none.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// medianTime times fn reps times and returns the median duration.
func medianTime(reps int, fn func()) time.Duration {
	vals := make([]float64, reps)
	for i := range vals {
		t0 := time.Now()
		fn()
		vals[i] = float64(time.Since(t0))
	}
	return time.Duration(median(vals))
}

// tailPercentile returns the highest of the percentiles p99, p99.9, ...
// that still has at least ten samples beyond it, and its value; ok is
// false when even p99 has fewer than ten samples beyond it.
func tailPercentile(h *hist.Hist) (q, value float64, ok bool) {
	n := float64(h.Count())
	for _, cand := range []float64{0.99999, 0.9999, 0.999, 0.99} {
		if n*(1-cand) >= 10 {
			return cand, h.Percentile(cand), true
		}
	}
	return 0, 0, false
}
