package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer's public entry
// point. Spans live in memory and are written out when the run ends.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"` // 0 for a root
	Req    int64   `json:"req"`    // request index, or federated round
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"` // since the recorder's origin
	End    float64 `json:"end_us"`
}

func (s span) durUs() float64 { return s.End - s.Start }

// recorder collects spans and counters for the traced run. A nil or
// switched-off recorder records nothing, so untraced runs and untraced phases
// pay one check per call.
type recorder struct {
	t0 time.Time
	on atomic.Bool

	mu       sync.Mutex
	next     int64
	spans    []span
	counters map[string]float64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), counters: make(map[string]float64)}
}

func (r *recorder) us(t time.Time) float64 {
	return float64(t.Sub(r.t0).Nanoseconds()) / 1e3
}

// add records a finished span and returns its id.
func (r *recorder) add(name string, parent, req int64, start, end time.Time) int64 {
	if r == nil || !r.on.Load() {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	r.spans = append(r.spans, span{ID: r.next, Parent: parent, Req: req, Name: name, Start: r.us(start), End: r.us(end)})
	return r.next
}

// reparent sets the parent of spans whose parent is only known after they
// end, such as a client's round: parents maps span id to parent id.
func (r *recorder) reparent(parents map[int64]int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.spans {
		if p, ok := parents[r.spans[i].ID]; ok {
			r.spans[i].Parent = p
		}
	}
}

func (r *recorder) counter(name string, v float64) {
	r.mu.Lock()
	r.counters[name] = v
	r.mu.Unlock()
}

// named returns a copy of the spans with the given name, in start order.
func (r *recorder) named(name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

func durationsMs(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.durUs() / 1e3
	}
	return out
}

// dump writes every span, then every counter, one JSON object a line.
func (r *recorder) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		_ = enc.Encode(s)
	}
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		_ = enc.Encode(map[string]any{"counter": n, "value": r.counters[n]})
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
