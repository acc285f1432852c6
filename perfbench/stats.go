package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// values, which it sorts in place, and the sample count. An empty input
// yields 0.
func percentile(values []float64, p float64) (float64, int) {
	n := len(values)
	if n == 0 {
		return 0, 0
	}
	sort.Float64s(values)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return values[rank-1], n
}

// median returns the median of values (sorting them in place).
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	sort.Float64s(values)
	if n%2 == 1 {
		return values[n/2]
	}
	return (values[n/2-1] + values[n/2]) / 2
}

// windowF1 scores alerts against ground-truth window labels.
func windowF1(alerts, truth []bool) float64 {
	var tp, fp, fn float64
	for i := range alerts {
		switch {
		case alerts[i] && truth[i]:
			tp++
		case alerts[i]:
			fp++
		case truth[i]:
			fn++
		}
	}
	if tp == 0 {
		return 0
	}
	return 2 * tp / (2*tp + fp + fn)
}

// chunkPercentiles splits samples, in schedule order, into consecutive
// chunks of at least size samples (at most eight) and returns each chunk's
// p-th percentile. Fewer than size samples yield none.
func chunkPercentiles(samples []float64, p float64, size int) []float64 {
	k := min(8, len(samples)/size)
	var out []float64
	for i := 0; i < k; i++ {
		lo, hi := i*len(samples)/k, (i+1)*len(samples)/k
		v, _ := percentile(append([]float64(nil), samples[lo:hi]...), p)
		out = append(out, v)
	}
	return out
}
