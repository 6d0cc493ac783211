package metrics

import (
	"fmt"
	"math"
	"sync/atomic"
)

// DefaultLatencyBuckets are the cumulative histogram bounds (milliseconds)
// every Histogram tracks: sub-millisecond resolution where batched serving
// lives, coarsening toward the second mark.
var DefaultLatencyBuckets = [...]float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 1000}

// Histogram accumulates latency observations into DefaultLatencyBuckets
// without a lock: one atomic counter per bound plus an overflow slot, with
// the sum and max kept as float64 bits updated by CAS. Everything covers the
// histogram's whole lifetime (Prometheus histograms must be monotonic), and
// the same buckets feed both the /metrics exposition (Snapshot) and the
// stats digest (Summary), so the two can never disagree. The zero value is
// ready to use; all methods are safe for concurrent use.
type Histogram struct {
	slots   [len(DefaultLatencyBuckets) + 1]atomic.Uint64 // per bound, then overflow
	sumBits atomic.Uint64
	maxBits atomic.Uint64
}

// Observe adds one observation (any unit; callers in this repo use
// milliseconds). NaN and negative values are dropped.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || v < 0 {
		return
	}
	i := 0
	for i < len(DefaultLatencyBuckets) && v > DefaultLatencyBuckets[i] {
		i++
	}
	h.slots[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// HistogramSnapshot is the cumulative-bucket digest of a Histogram, shaped
// for Prometheus exposition: Counts[i] is the lifetime number of
// observations <= Bounds[i], and Count/Sum close the +Inf bucket.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64 // cumulative; same length as Bounds
	Count  uint64   // lifetime observations (the +Inf bucket)
	Sum    float64
}

// Snapshot reads the lifetime cumulative buckets. Count is the sum of every
// slot read, so the +Inf bucket never under-counts the finite ones even
// while observations land concurrently.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: DefaultLatencyBuckets[:],
		Counts: make([]uint64, len(DefaultLatencyBuckets)),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.slots {
		s.Count += h.slots[i].Load()
		if i < len(s.Counts) {
			s.Counts[i] = s.Count
		}
	}
	return s
}

// Quantile estimates the q-th quantile (0 <= q <= 1) from the snapshot's
// buckets with BucketQuantile — the estimate Scrape.HistogramQuantile makes
// from the same series once exported. It errors on an empty snapshot or an
// out-of-range q.
func (s HistogramSnapshot) Quantile(q float64) (float64, error) {
	if len(s.Counts) != len(s.Bounds) {
		return 0, fmt.Errorf("%w: %d bounds, %d counts", ErrInput, len(s.Bounds), len(s.Counts))
	}
	bounds := append(s.Bounds[:len(s.Bounds):len(s.Bounds)], math.Inf(1))
	counts := make([]float64, len(bounds))
	for i, c := range s.Counts {
		counts[i] = float64(c)
	}
	counts[len(s.Counts)] = float64(s.Count)
	return BucketQuantile(q, bounds, counts)
}

// LatencySummary is a point-in-time digest of a Histogram, shaped for a
// stats endpoint.
type LatencySummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// Summary digests the histogram. Count, mean and max are exact over the
// lifetime; p50/p90/p99 are bucket estimates (Snapshot().Quantile). An
// empty histogram yields a zero summary.
func (h *Histogram) Summary() LatencySummary {
	snap := h.Snapshot()
	if snap.Count == 0 {
		return LatencySummary{}
	}
	s := LatencySummary{
		Count: snap.Count,
		Mean:  snap.Sum / float64(snap.Count),
		Max:   math.Float64frombits(h.maxBits.Load()),
	}
	s.P50, _ = snap.Quantile(0.50)
	s.P90, _ = snap.Quantile(0.90)
	s.P99, _ = snap.Quantile(0.99)
	return s
}
