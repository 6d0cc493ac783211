package main

import (
	"fmt"
	"math"
	"sort"
)

// failedMs is the latency recorded for a failed or refused request: it
// misses every latency limit, so it sorts above every real sample.
var failedMs = math.MaxFloat64

// rank is the 1-based nearest rank of the q-quantile of n samples. The
// epsilon keeps q*n from rounding up past an exact rank (0.9*100 is
// 90.00000000000001 in floating point).
func rank(n int, q float64) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(rank(len(sorted), q)-1, 0)]
}

// beyond counts the samples ranked above the nearest-rank q-quantile.
func beyond(n int, q float64) int {
	return n - rank(n, q)
}

// tailQuantiles are the candidate tail percentiles, lowest first.
var tailQuantiles = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// minBeyond is how many samples must rank above a percentile before the
// benchmark reports it: a percentile with fewer is one sample's luck.
const minBeyond = 10

// tail is the highest percentile a sample supports.
type tail struct {
	Name   string  `json:"name"`
	Q      float64 `json:"q"`
	Value  float64 `json:"value"`
	Beyond int     `json:"beyond"`
	N      int     `json:"n"`
}

// supportedTail applies the percentile rule: the highest candidate
// percentile with at least minBeyond samples beyond it, with that count. ok
// is false when not even the median qualifies.
func supportedTail(sorted []float64) (t tail, ok bool) {
	for _, q := range tailQuantiles {
		b := beyond(len(sorted), q)
		if b < minBeyond {
			break
		}
		t = tail{Name: pctName(q), Q: q, Value: quantile(sorted, q), Beyond: b, N: len(sorted)}
		ok = true
	}
	return t, ok
}

// pctName names a quantile as a percentile: 0.999 is "p99.9".
func pctName(q float64) string {
	return fmt.Sprintf("p%g", math.Round(q*100*1e6)/1e6)
}

// sortedCopy returns a sorted copy.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func median(v []float64) float64 {
	return quantile(sortedCopy(v), 0.5)
}
