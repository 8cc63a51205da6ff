package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
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

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method: the
// i-th of n-1 cut points sits at rank i·(len+1)/n, interpolated, clamped
// to the data) — the definition the acceptance driver uses for spread.
// Fewer than two values return (x, x).
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	if len(xs) == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median — the
// repeatability figure every bound in BENCHMARK.json is judged against.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// quantileSorted returns the q-quantile (q in [0,1]) of an ascending slice
// by nearest rank.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// bestTenth returns the mean of the best tenth of xs, at least one value:
// the smallest when lower is better, the largest otherwise.
//
// It is the estimator behind ops_per_s and op_ms_p50. The reference host is
// shared, and its neighbours slow memory-bound code by a quarter for seconds
// or minutes at a time, so a mean or a median over a 15-second section
// measures the neighbours. A disturbance can only add time; the undisturbed
// speed still shows in the slices the neighbours spared, and the best tenth
// reads it there without resting on one lucky slice where there are many.
func bestTenth(xs []float64, lowerIsBetter bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := (len(s) + 9) / 10
	if !lowerIsBetter {
		s = s[len(s)-n:]
	}
	var sum float64
	for _, x := range s[:n] {
		sum += x
	}
	return sum / float64(n)
}

// bestByKind groups slices by kind and returns, per kind, the best tenth of
// value over the kind's slices and the ops the kind carried. Kinds are never
// compared with each other (a round-robin run is cheaper than an L3 run by
// design), only weighted.
func bestByKind(slices []slice, value func(slice) float64, lowerIsBetter bool) (best, ops map[int]float64) {
	values := make(map[int][]float64)
	ops = make(map[int]float64)
	for _, s := range slices {
		values[s.kind] = append(values[s.kind], value(s))
		ops[s.kind] += float64(s.ops)
	}
	best = make(map[int]float64, len(values))
	for k, vs := range values {
		best[k] = bestTenth(vs, lowerIsBetter)
	}
	return best, ops
}

// steadyOpMs is op_ms_p50: within each kind of slice the best tenth's time
// per op, kinds weighted by the ops they carried.
func steadyOpMs(slices []slice) float64 {
	best, ops := bestByKind(slices, func(s slice) float64 { return s.opMs }, true)
	var sum, total float64
	for k, ms := range best {
		sum += ms * ops[k]
		total += ops[k]
	}
	if total == 0 {
		return 0
	}
	return sum / total
}

// steadyOpsPerS is ops_per_s: within each kind the best tenth's throughput;
// across kinds, all ops over the time they would take at those rates.
func steadyOpsPerS(slices []slice) float64 {
	best, ops := bestByKind(slices, func(s slice) float64 { return float64(s.ops) / s.wall.Seconds() }, false)
	var seconds, total float64
	for k, rate := range best {
		seconds += ops[k] / rate
		total += ops[k]
	}
	if seconds == 0 {
		return 0
	}
	return total / seconds
}
