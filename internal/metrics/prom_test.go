package metrics

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestPromWriterGroupsFamilies(t *testing.T) {
	var buf bytes.Buffer
	w := NewPromWriter(&buf)
	// Two producers interleave families; the output must group them.
	w.Counter("demo_requests_total", "Requests.", 3, Label{Name: "model", Value: "a"})
	w.Gauge("demo_inflight", "Inflight.", 2, Label{Name: "model", Value: "a"})
	w.Counter("demo_requests_total", "Requests.", 5, Label{Name: "model", Value: "b"})
	w.Gauge("demo_inflight", "Inflight.", 0, Label{Name: "model", Value: "b"})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := `# HELP demo_requests_total Requests.
# TYPE demo_requests_total counter
demo_requests_total{model="a"} 3
demo_requests_total{model="b"} 5
# HELP demo_inflight Inflight.
# TYPE demo_inflight gauge
demo_inflight{model="a"} 2
demo_inflight{model="b"} 0
`
	if got != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestPromWriterHistogram(t *testing.T) {
	var r Histogram
	for _, v := range []float64{0.04, 0.2, 0.2, 3, 2000} {
		r.Observe(v)
	}
	var buf bytes.Buffer
	w := NewPromWriter(&buf)
	w.Histogram("demo_latency_ms", "Latency.", r.Snapshot(), Label{Name: "model", Value: "a"})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, want := range []string{
		"# TYPE demo_latency_ms histogram",
		`demo_latency_ms_bucket{model="a",le="0.05"} 1`,
		`demo_latency_ms_bucket{model="a",le="0.25"} 3`,
		`demo_latency_ms_bucket{model="a",le="5"} 4`,
		`demo_latency_ms_bucket{model="a",le="1000"} 4`,
		`demo_latency_ms_bucket{model="a",le="+Inf"} 5`,
		`demo_latency_ms_count{model="a"} 5`,
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("missing %q in:\n%s", want, got)
		}
	}
}

func TestPromWriterLabelEscaping(t *testing.T) {
	var buf bytes.Buffer
	w := NewPromWriter(&buf)
	w.Gauge("demo", "D.", 1, Label{Name: "v", Value: "a\"b\\c\nd"})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := `demo{v="a\"b\\c\nd"} 1`; !strings.Contains(buf.String(), want) {
		t.Fatalf("escaping: got %q, want it to contain %q", buf.String(), want)
	}
}

func TestPromWriterTypeConflict(t *testing.T) {
	var buf bytes.Buffer
	w := NewPromWriter(&buf)
	w.Counter("demo", "D.", 1)
	w.Gauge("demo", "D.", 2)
	if err := w.Flush(); !errors.Is(err, ErrInput) {
		t.Fatalf("re-typed metric: %v, want ErrInput", err)
	}
}
