package metrics

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

const scrapeFixture = `# HELP mobiledl_requests_total Requests answered successfully.
# TYPE mobiledl_requests_total counter
mobiledl_requests_total{model="a"} 10
mobiledl_requests_total{model="b"} 32
# HELP mobiledl_queue_depth Requests waiting.
# TYPE mobiledl_queue_depth gauge
mobiledl_queue_depth{model="a"} 3
# HELP mobiledl_request_latency_ms End-to-end latency.
# TYPE mobiledl_request_latency_ms histogram
mobiledl_request_latency_ms_bucket{model="a",le="1"} 50
mobiledl_request_latency_ms_bucket{model="a",le="10"} 90
mobiledl_request_latency_ms_bucket{model="a",le="100"} 99
mobiledl_request_latency_ms_bucket{model="a",le="+Inf"} 100
mobiledl_request_latency_ms_sum{model="a"} 421.5
mobiledl_request_latency_ms_count{model="a"} 100
escaped{path="a\"b\\c\nd"} 1
`

func TestParsePromRoundTrip(t *testing.T) {
	s, err := ParseProm(scrapeFixture)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Has("mobiledl_requests_total") || s.Type("mobiledl_requests_total") != "counter" {
		t.Fatalf("counter family missing or untyped: %q", s.Type("mobiledl_requests_total"))
	}
	if s.Type("mobiledl_request_latency_ms") != "histogram" {
		t.Fatal("histogram TYPE not retained")
	}
	if v, ok := s.Value("mobiledl_requests_total", Label{Name: "model", Value: "b"}); !ok || v != 32 {
		t.Fatalf("Value(model=b) = %v, %v", v, ok)
	}
	if _, ok := s.Value("mobiledl_requests_total", Label{Name: "model", Value: "zzz"}); ok {
		t.Fatal("Value matched a missing label")
	}
	if got := s.Sum("mobiledl_requests_total"); got != 42 {
		t.Fatalf("Sum across models = %v, want 42", got)
	}
	if v, ok := s.Value("escaped", Label{Name: "path", Value: "a\"b\\c\nd"}); !ok || v != 1 {
		t.Fatalf("escaped label round-trip failed: %v %v", v, ok)
	}
	if s.Has("nonexistent_family") {
		t.Fatal("Has matched a missing family")
	}
}

// TestParsePromReadsPromWriterOutput pins the writer/parser pair: whatever
// PromWriter emits, ParseProm must read back, including histograms and
// escaped labels.
func TestParsePromReadsPromWriterOutput(t *testing.T) {
	var buf bytes.Buffer
	pw := NewPromWriter(&buf)
	pw.Counter("c_total", "help", 7, Label{Name: "weird", Value: "a\"b\\c\nd"})
	pw.Gauge("g", "help", 2.5)
	var rec Histogram
	for _, v := range []float64{0.2, 0.7, 3, 40, 900} {
		rec.Observe(v)
	}
	pw.Histogram("lat_ms", "help", rec.Snapshot())
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	s, err := ParseProm(buf.String())
	if err != nil {
		t.Fatalf("parse of PromWriter output: %v\n%s", err, buf.String())
	}
	if v, ok := s.Value("c_total", Label{Name: "weird", Value: "a\"b\\c\nd"}); !ok || v != 7 {
		t.Fatalf("counter round-trip: %v %v", v, ok)
	}
	if v, ok := s.Value("lat_ms_count"); !ok || v != 5 {
		t.Fatalf("histogram count round-trip: %v %v", v, ok)
	}
	bounds, counts := s.HistogramBuckets("lat_ms")
	if len(bounds) != len(DefaultLatencyBuckets)+1 || !math.IsInf(bounds[len(bounds)-1], 1) {
		t.Fatalf("bucket shape: %v", bounds)
	}
	if counts[len(counts)-1] != 5 {
		t.Fatalf("+Inf bucket = %v, want 5", counts[len(counts)-1])
	}
}

func TestScrapeURL(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(scrapeFixture))
	}))
	defer ts.Close()
	s, err := ScrapeURL(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Sum("mobiledl_requests_total"); got != 42 {
		t.Fatalf("scraped sum = %v", got)
	}
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer bad.Close()
	if _, err := ScrapeURL(bad.URL); err == nil {
		t.Fatal("500 scrape did not error")
	}
}

func TestHistogramQuantile(t *testing.T) {
	s, err := ParseProm(scrapeFixture)
	if err != nil {
		t.Fatal(err)
	}
	// Median: rank 50 lands exactly on the le=1 bucket boundary.
	p50, err := s.HistogramQuantile("mobiledl_request_latency_ms", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if p50 <= 0 || p50 > 1 {
		t.Fatalf("p50 = %v, want (0, 1]", p50)
	}
	// p95: rank 95 falls in (10, 100], 5/9ths of the way through.
	p95, err := s.HistogramQuantile("mobiledl_request_latency_ms", 0.95)
	if err != nil {
		t.Fatal(err)
	}
	want := 10 + 90*(95.0-90)/9
	if math.Abs(p95-want) > 1e-9 {
		t.Fatalf("p95 = %v, want %v", p95, want)
	}
	// p999 lands in +Inf: saturates at the highest finite bound.
	p999, err := s.HistogramQuantile("mobiledl_request_latency_ms", 0.999)
	if err != nil {
		t.Fatal(err)
	}
	if p999 != 100 {
		t.Fatalf("p999 = %v, want saturation at 100", p999)
	}
	if _, err := s.HistogramQuantile("missing_histogram", 0.5); err == nil {
		t.Fatal("missing histogram did not error")
	}
	if _, err := s.HistogramQuantile("mobiledl_request_latency_ms", 1.5); err == nil {
		t.Fatal("out-of-range quantile did not error")
	}
}

func TestBucketQuantileEdges(t *testing.T) {
	if _, err := BucketQuantile(0.5, nil, nil); err == nil {
		t.Fatal("empty buckets did not error")
	}
	if _, err := BucketQuantile(0.5, []float64{1, math.Inf(1)}, []float64{0, 0}); err == nil {
		t.Fatal("zero-count histogram did not error")
	}
	// All mass in the first bucket: q interpolates inside [0, bound].
	v, err := BucketQuantile(0.5, []float64{10, math.Inf(1)}, []float64{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if v != 5 {
		t.Fatalf("single-bucket p50 = %v, want 5", v)
	}
}

func TestScrapeMerge(t *testing.T) {
	a, err := ParseProm("x_total{node=\"a\"} 1\n")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseProm("# TYPE x_total counter\nx_total{node=\"b\"} 2\n")
	if err != nil {
		t.Fatal(err)
	}
	a.Merge(b)
	if got := a.Sum("x_total"); got != 3 {
		t.Fatalf("merged sum = %v", got)
	}
	if a.Type("x_total") != "counter" {
		t.Fatal("merge dropped the type")
	}
}
