package metrics

import (
	"errors"
	"math"
	"sync"
	"testing"
)

func TestLatencyRecorderQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.Summary()
	if s.Count != 100 || s.Max != 100 || math.Abs(s.Mean-50.5) > 1e-9 {
		t.Fatalf("summary %+v", s)
	}
	// 1..100 fills (25,50] and (50,100] uniformly, so interpolating inside
	// the landing bucket recovers the exact order statistics.
	for _, c := range []struct{ got, want float64 }{{s.P50, 50}, {s.P90, 90}, {s.P99, 99}} {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Fatalf("quantile = %v, want %v (summary %+v)", c.got, c.want, s)
		}
	}
	if _, err := h.Snapshot().Quantile(1.5); !errors.Is(err, ErrInput) {
		t.Fatalf("out-of-range quantile: %v", err)
	}
}

func TestLatencyRecorderEmptyAndInvalid(t *testing.T) {
	var h Histogram
	if _, err := h.Snapshot().Quantile(0.5); !errors.Is(err, ErrInput) {
		t.Fatalf("empty quantile: %v", err)
	}
	if s := h.Summary(); s != (LatencySummary{}) {
		t.Fatalf("empty summary %+v", s)
	}
	h.Observe(-1)
	h.Observe(math.NaN())
	if s := h.Summary(); s != (LatencySummary{}) || h.Snapshot().Sum != 0 {
		t.Fatalf("invalid samples must be dropped: %+v", s)
	}
}

// TestLatencyRecorderQuantileEdges pins the boundary cases: q=0 and q=1
// bracket the observed range at bucket resolution (the lower edge of the
// minimum's bucket, the upper edge of the maximum's), and q outside [0, 1]
// or NaN is an input error.
func TestLatencyRecorderQuantileEdges(t *testing.T) {
	var h Histogram
	for _, v := range []float64{9, 3, 12, 1, 6} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	if got, err := snap.Quantile(0); err != nil || got != 0.5 {
		t.Fatalf("Quantile(0) = %v, %v; want 0.5, the lower edge of the (0.5, 1] bucket holding the minimum", got, err)
	}
	if got, err := snap.Quantile(1); err != nil || got != 25 {
		t.Fatalf("Quantile(1) = %v, %v; want 25, the upper edge of the (10, 25] bucket holding the maximum", got, err)
	}
	if _, err := snap.Quantile(math.NaN()); !errors.Is(err, ErrInput) {
		t.Fatalf("NaN quantile: %v, want ErrInput", err)
	}
	if _, err := snap.Quantile(-0.1); !errors.Is(err, ErrInput) {
		t.Fatalf("negative quantile: %v, want ErrInput", err)
	}
}

func TestLatencyRecorderHistogram(t *testing.T) {
	var r Histogram
	for _, v := range []float64{0.01, 0.3, 30, 5000} {
		r.Observe(v)
	}
	h := r.Snapshot()
	if h.Count != 4 || math.Abs(h.Sum-5030.31) > 1e-9 {
		t.Fatalf("histogram count=%d sum=%v", h.Count, h.Sum)
	}
	if len(h.Counts) != len(h.Bounds) {
		t.Fatalf("%d counts for %d bounds", len(h.Counts), len(h.Bounds))
	}
	// Cumulative counts must be monotonic and end below Count when samples
	// overflow the last bound (5000 > 1000 lives only in +Inf).
	var prev uint64
	for i, c := range h.Counts {
		if c < prev {
			t.Fatalf("bucket %d not cumulative: %v", i, h.Counts)
		}
		prev = c
	}
	if last := h.Counts[len(h.Counts)-1]; last != 3 {
		t.Fatalf("last bound holds %d, want 3 (one sample beyond every bound)", last)
	}
	if s := r.Summary(); s.Max != 5000 || s.P99 != 1000 {
		t.Fatalf("summary %+v: want exact max 5000, p99 saturated at the last bound", s)
	}
}

// TestHistogramConcurrent races Observe against Snapshot/Summary: no
// observation may be lost, the float sum must be exact, and every snapshot
// taken mid-flight must be internally consistent.
func TestHistogramConcurrent(t *testing.T) {
	const goroutines, perG = 8, 500
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(g*perG + i))
				if i%50 != 0 {
					continue
				}
				h.Summary()
				snap := h.Snapshot()
				var prev uint64
				for j, c := range snap.Counts {
					if c < prev || c > snap.Count {
						t.Errorf("snapshot bucket %d = %d after %d, Count %d", j, c, prev, snap.Count)
						return
					}
					prev = c
				}
			}
		}(g)
	}
	wg.Wait()
	const n = goroutines * perG
	s := h.Summary()
	if s.Count != n {
		t.Fatalf("count %d, want %d", s.Count, n)
	}
	if want := float64(n*(n-1)) / 2; h.Snapshot().Sum != want {
		t.Fatalf("sum %v, want %v", h.Snapshot().Sum, want)
	}
	if s.Max != n-1 {
		t.Fatalf("max %v, want %d", s.Max, n-1)
	}
}
