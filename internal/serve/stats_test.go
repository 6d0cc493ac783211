package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"testing"
	"time"

	"mobiledl/internal/metrics"
)

// TestRateWindowSlides pins the ThroughputRPS fix: the reported rate covers
// only the sliding window, so it tracks current traffic and returns to zero
// after idling — instead of a lifetime average that decays forever.
func TestRateWindowSlides(t *testing.T) {
	var rw rateWindow
	base := time.Unix(1_000_000, 0)

	// 300 events spread over the 3 seconds just before "now".
	for s := 0; s < 3; s++ {
		for i := 0; i < 100; i++ {
			rw.record(base.Add(time.Duration(s) * time.Second))
		}
	}
	now := base.Add(2 * time.Second)

	// Long-uptime server: a lifetime average over 1000s would report 0.3
	// rps; the window reports the actual ~10 rps (300 events / 30s window).
	got := rw.rate(now, 1000)
	if got != 10 {
		t.Fatalf("windowed rate = %v, want 10", got)
	}

	// Young server: the divisor is the covered uptime, not the full window.
	if got := rw.rate(now, 3); got != 100 {
		t.Fatalf("young-uptime rate = %v, want 100", got)
	}

	// After a long idle period every slot ages out: the rate is zero, not a
	// slowly-decaying lifetime average.
	idle := now.Add(10 * time.Minute)
	if got := rw.rate(idle, 1000); got != 0 {
		t.Fatalf("post-idle rate = %v, want 0", got)
	}
}

// TestRateWindowSlotReuse checks that a slot left over from an earlier lap
// of the ring is reset, not accumulated into.
func TestRateWindowSlotReuse(t *testing.T) {
	var rw rateWindow
	base := time.Unix(2_000_000, 0)
	rw.record(base)
	// One full ring lap later the same slot holds a different second.
	later := base.Add(rateWindowSecs * time.Second)
	rw.record(later)
	rw.record(later)
	if got := rw.rate(later, 1000); got*rateWindowSecs != 2 {
		t.Fatalf("reused slot rate = %v, want 2 events over the window", got)
	}
}

// TestStatsSnapshotCountsShedExpiredErrors checks the new counters surface
// in the /v1/stats shape.
func TestStatsSnapshotCountsShedExpiredErrors(t *testing.T) {
	c := newCollector()
	c.shed.Add(3)
	c.expired.Add(2)
	c.errors.Add(1)
	s := c.snapshot(32, 7, 4)
	if s.Shed != 3 || s.Expired != 2 || s.Errors != 1 {
		t.Fatalf("counters %+v", s)
	}
	if s.Inflight != 7 || s.QueueDepth != 4 {
		t.Fatalf("gauges inflight=%d queue=%d", s.Inflight, s.QueueDepth)
	}
}

// TestStatsQuantilesMatchMetrics pins the single source of truth: the
// /v1/stats latency digests and the /metrics histograms read the same
// buckets, so a scraper's histogram_quantile reproduces the stats endpoint's
// p50/p90/p99 and the counts and means agree exactly.
func TestStatsQuantilesMatchMetrics(t *testing.T) {
	ts, _ := newErrorTestServer(t)
	sent := 0 // the runtime records latency once per row
	for i := 0; i < 40; i++ {
		rows := make([][]float64, 1+i%3)
		sent += len(rows)
		for r := range rows {
			rows[r] = []float64{float64(i), 2, 3, 4, 5, 6, 7, float64(r)}
		}
		body, _ := json.Marshal(PredictRequest{Model: "mlp", Features: rows})
		if resp, payload := postPredict(t, ts, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("predict %d: status %d %v", i, resp.StatusCode, payload)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	scrape, err := metrics.ScrapeURL(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	st := stats["mlp"]
	if st.LatencyMs.Count != uint64(sent) {
		t.Fatalf("latency count %d, want %d", st.LatencyMs.Count, sent)
	}
	model := metrics.Label{Name: "model", Value: "mlp"}
	for _, c := range []struct {
		family string
		sum    metrics.LatencySummary
	}{
		{"mobiledl_request_latency_ms", st.LatencyMs},
		{"mobiledl_queue_latency_ms", st.QueueMs},
		{"mobiledl_exec_latency_ms", st.ExecMs},
	} {
		count, _ := scrape.Value(c.family+"_count", model)
		sum, _ := scrape.Value(c.family+"_sum", model)
		if uint64(count) != c.sum.Count || math.Abs(sum/count-c.sum.Mean) > 1e-9 {
			t.Fatalf("%s: /metrics count=%v mean=%v, /v1/stats %+v", c.family, count, sum/count, c.sum)
		}
		for _, q := range []struct {
			q    float64
			want float64
		}{{0.50, c.sum.P50}, {0.90, c.sum.P90}, {0.99, c.sum.P99}} {
			got, err := scrape.HistogramQuantile(c.family, q.q, model)
			if err != nil || math.Abs(got-q.want) > 1e-9 {
				t.Fatalf("%s q=%v: /metrics %v (%v), /v1/stats %v", c.family, q.q, got, err, q.want)
			}
		}
	}
}
