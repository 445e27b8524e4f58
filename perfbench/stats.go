package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail metric may report, highest
// first.
var tailLadder = []float64{99, 95, 90, 75, 50}

// rank returns the 1-based rank of percentile p among n sorted samples
// (nearest-rank definition).
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// tailPercentile is the percentile rule for tail latencies: the highest
// percentile on the ladder that leaves at least ten samples beyond it in
// a run of n samples. It also returns how many samples lie beyond it. A
// run of fewer than 20 samples falls back to the median.
func tailPercentile(n int) (p float64, beyond int) {
	for _, p := range tailLadder {
		if b := n - rank(p, n); b >= 10 {
			return p, b
		}
	}
	return 50, n - rank(50, n)
}

// percentile returns the Harrell-Davis estimate of percentile p of xs: an
// average of all the sorted samples, each weighted by the probability that
// a Beta((n+1)p/100, (n+1)(1-p/100)) draw falls in its rank interval. A
// grid pass is a small, lumpy sample (a few dozen cells of very different
// cost), and a nearest-rank percentile jumps whenever two neighbouring
// cells swap ranks; this estimate moves smoothly instead. It returns NaN
// for no samples; xs is not modified.
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0]
	}
	q := p / 100
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	pdf := func(x float64) float64 {
		if x <= 0 || x >= 1 {
			return 0
		}
		return math.Exp((a-1)*math.Log(x) + (b-1)*math.Log1p(-x) - (la + lb - lab))
	}
	// Trapezoid rule with steps points per rank interval: enough points to
	// resolve the Beta density, which spans sqrt(n·q·(1-q)) ranks.
	steps := max(1, min(16, 16000/n))
	h := 1 / float64(n*steps)
	var est, total float64
	prev := pdf(0)
	for i := 0; i < n; i++ {
		var w float64
		for k := 1; k <= steps; k++ {
			cur := pdf(float64(i*steps+k) * h)
			w += (prev + cur) / 2 * h
			prev = cur
		}
		est += w * s[i]
		total += w
	}
	return est / total
}

// median is the 50th percentile of xs.
func median(xs []float64) float64 { return percentile(xs, 50) }

// geomean returns the geometric mean of positive ratios.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var logs float64
	for _, x := range xs {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}
