package main

import (
	"sort"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count); 0 for an empty sample.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks; 0 for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailPermille are the percentiles a tail is reported at, highest first, in
// per-mille so the "samples beyond" test is exact integer arithmetic.
var tailPermille = []int{999, 990, 950, 900, 750, 500}

// tailQuantile picks the highest percentile, no higher than maxPermille, that
// leaves at least ten of the n samples beyond it, and returns it as a
// fraction with its value. ok is false when even the median has fewer than
// ten samples beyond it; the median is returned then.
func tailQuantile(xs []float64, maxPermille int) (q, v float64, ok bool) {
	for _, pm := range tailPermille {
		if pm > maxPermille {
			continue
		}
		if len(xs)*(1000-pm)/1000 >= 10 {
			q = float64(pm) / 1000
			return q, quantile(xs, q), true
		}
	}
	return 0.5, median(xs), false
}

// parEfficiency is the parallel efficiency of one run pair: the throughput at
// nproc workers over nproc times the serial throughput. Both runs do the same
// work, so it reduces to the serial wall time over nproc times the parallel
// wall time.
func parEfficiency(serial, par time.Duration, nproc int) float64 {
	if par <= 0 || nproc <= 0 {
		return 0
	}
	return serial.Seconds() / (par.Seconds() * float64(nproc))
}
