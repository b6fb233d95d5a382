package main

import (
	"math"
	"testing"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileRule(t *testing.T) {
	cases := []struct {
		count int
		q     float64
		want  bool
	}{
		{1000, 0.99, true},
		{999, 0.99, false},
		{100, 0.90, true},
		{99, 0.90, false},
		{20, 0.50, true},
		{19, 0.50, false},
	}
	for _, c := range cases {
		if got := supports(c.count, c.q); got != c.want {
			t.Errorf("supports(%d, %v) = %v, want %v", c.count, c.q, got, c.want)
		}
	}
}

func TestRoundsQuantile(t *testing.T) {
	// Every round supports p99 alone: the median of the per-round values.
	big := [][]float64{ramp(1000), ramp(2000), ramp(1000)}
	v, per, ok := roundsQuantile(big, 0.99)
	if !ok || len(per) != 3 || v != median(per) {
		t.Fatalf("per-round p99: value %v per %v ok %v", v, per, ok)
	}
	// No round supports p99 alone, the pool does: the pooled quantile.
	small := [][]float64{ramp(400), ramp(400), ramp(400)}
	pool := append(append(ramp(400), ramp(400)...), ramp(400)...)
	v, _, ok = roundsQuantile(small, 0.99)
	if !ok || v != quantile(pool, 0.99) {
		t.Fatalf("pooled p99 = %v ok %v, want %v", v, ok, quantile(pool, 0.99))
	}
	// Not even the pool supports it.
	if _, _, ok := roundsQuantile([][]float64{ramp(300), ramp(300)}, 0.99); ok {
		t.Fatal("600 samples reported as supporting p99")
	}
	// A failed operation is +Inf and must land beyond the percentile.
	xs := append(ramp(99), math.Inf(1))
	if got := quantile(xs, 0.5); math.IsInf(got, 0) {
		t.Fatalf("median moved to +Inf: %v", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python: statistics.quantiles(data, n=4).
	cases := []struct {
		data   []float64
		q1, q3 float64
	}{
		{ramp(10), 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5}, 5, 5},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.data)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.data, q1, q3, c.q1, c.q3)
		}
	}
}

func TestClassify(t *testing.T) {
	base := []float64{10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10.1, 9.9, 10}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name  string
		base  []float64
		cur   []float64
		lower bool
		want  verdict
	}{
		{"same", base, shift(base, 1.02), true, same},
		{"worse beyond bound", base, shift(base, 1.2), true, worse},
		{"better on every pair", base, shift(base, 0.8), true, better},
		{"higher is better, drop is worse", base, shift(base, 0.8), false, worse},
		{"small gain inside the bound but beyond the spread", base, shift(base, 0.95), true, better},
		{"noisy parent leaves it unresolved", []float64{5, 10, 15, 20, 8, 12}, []float64{6, 11, 14, 19, 9, 13}, true, unresolved},
		{"noisy parent, every change run better", []float64{5, 10, 15, 20, 8, 12}, []float64{1, 2, 1, 2, 1, 2}, true, better},
		{"no rounds", nil, base, true, unresolved},
	}
	for _, c := range cases {
		if got := classify(c.base, c.cur, c.lower, 0.1); got != c.want {
			t.Errorf("%s: classify = %s, want %s", c.name, got, c.want)
		}
	}
}
