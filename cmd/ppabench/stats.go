package main

import (
	"math"
	"sort"
)

// minBeyond is the percentile rule: a q-quantile is reported only when at
// least this many samples lie beyond it, so p99 needs 1000 samples and p90
// needs 100.
const minBeyond = 10

// supports reports whether count samples support the q-quantile.
func supports(count int, q float64) bool {
	return float64(count)*(1-q) >= minBeyond-1e-9
}

// quantile returns the q-quantile of xs (sorted in place) by linear
// interpolation between the closest ranks. NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	if frac == 0 || math.IsInf(xs[lo+1], 1) {
		return xs[lo]
	}
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// median is the 0.5-quantile of a copy of xs.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// roundsQuantile applies the percentile rule across rounds: when every
// round alone has enough samples beyond q, the q-quantile is taken per
// round and the median of the rounds reported (one disturbed round cannot
// move it); otherwise the rounds' samples are pooled. ok is false when
// even the pool cannot support q. perRound always holds each round's own
// q-quantile, for the spread in the report.
func roundsQuantile(rounds [][]float64, q float64) (value float64, perRound []float64, ok bool) {
	each := len(rounds) > 0
	var pool []float64
	for _, r := range rounds {
		perRound = append(perRound, quantile(append([]float64(nil), r...), q))
		each = each && supports(len(r), q)
		pool = append(pool, r...)
	}
	if each {
		return median(perRound), perRound, true
	}
	return quantile(pool, q), perRound, supports(len(pool), q)
}

// quartiles returns the first and third quartiles with the "exclusive"
// method of Python's statistics.quantiles(values, n=4), the definition the
// benchmark's run-to-run spread is judged by. One value is its own
// quartiles.
func quartiles(values []float64) (q1, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return data[0], data[0]
	}
	const groups = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / groups
		j = max(1, min(j, ld-1))
		delta := i*m - j*groups
		return (data[j-1]*float64(groups-delta) + data[j]*float64(delta)) / groups
	}
	return cut(1), cut(3)
}

// verdict is the comparison outcome of one (metric, workload) pair.
type verdict string

const (
	better     verdict = "better"
	same       verdict = "same"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// classify compares the change's per-round values cur against the
// parent's base for one metric, by the rules the benchmark is judged by:
//
//   - The parent's own spread (interquartile range over its median) wider
//     than bound leaves the pair unresolved, unless every change value is
//     better than every parent value.
//   - A change median worse than the parent's by more than bound (a share
//     of the parent's median) is worse.
//   - A gain needs the medians apart by more than the parent's IQR and the
//     change winning at least nine tenths of the index-paired rounds, ties
//     counting for neither.
//   - Anything else is the same.
func classify(base, cur []float64, lowerIsBetter bool, bound float64) verdict {
	if len(base) == 0 || len(cur) == 0 {
		return unresolved
	}
	beats := func(a, b float64) bool {
		if lowerIsBetter {
			return a < b
		}
		return a > b
	}
	mb, mc := median(base), median(cur)
	q1, q3 := quartiles(base)
	iqr := q3 - q1
	allBetter := true
	for _, c := range cur {
		for _, b := range base {
			allBetter = allBetter && beats(c, b)
		}
	}
	if mb == 0 {
		if mc == 0 {
			return same
		}
		return unresolved
	}
	if iqr/math.Abs(mb) > bound {
		if allBetter {
			return better
		}
		return unresolved
	}
	loss := (mc - mb) / math.Abs(mb)
	if !lowerIsBetter {
		loss = -loss
	}
	if loss > bound {
		return worse
	}
	pairs := min(len(base), len(cur))
	wins := 0
	for i := 0; i < pairs; i++ {
		if beats(cur[i], base[i]) {
			wins++
		}
	}
	if loss < 0 && math.Abs(mc-mb) > iqr && float64(wins) >= 0.9*float64(pairs) {
		return better
	}
	return same
}
