package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		name   string
		value  float64
		beyond int
	}{
		{20, "p50", 10, 10},
		{99, "p50", 50, 49},
		{100, "p90", 90, 10},
		{999, "p90", 900, 99},
		{1000, "p99", 990, 10},
		{9999, "p99", 9900, 99},
		{10000, "p99.9", 9990, 10},
	} {
		got, ok := supportedTail(seq(tc.n))
		if !ok || got.Name != tc.name || got.Value != tc.value || got.Beyond != tc.beyond || got.N != tc.n {
			t.Errorf("n=%d: got %+v ok=%v, want %s=%v with %d beyond", tc.n, got, ok, tc.name, tc.value, tc.beyond)
		}
	}
	if got, ok := supportedTail(seq(19)); ok {
		t.Errorf("n=19 supports no percentile, got %+v", got)
	}
}

func TestFailedRequestMissesEveryLimit(t *testing.T) {
	ok := sample{due: time.Unix(0, 0), end: time.Unix(0, 3e6), ok: true}
	failed := sample{due: time.Unix(0, 0), end: time.Unix(0, 1e6)}
	lat := latencies([]sample{failed, ok})
	if lat[0] != 3 || lat[1] != failedMs {
		t.Fatalf("latencies %v: a failure must rank above every answered request", lat)
	}
}

// A server that stalls makes every request due during the stall late: the
// open loop keeps its schedule, so latency counts from when each request was
// due, not from when a sender got to it.
func TestOpenLoopStallMakesLaterRequestsLate(t *testing.T) {
	const step = 10 * time.Millisecond
	offsets := make([]time.Duration, 30)
	for i := range offsets {
		offsets[i] = time.Duration(i+1) * step
	}
	t0 := time.Now()
	stallStart, stallEnd := t0.Add(50*time.Millisecond), t0.Add(150*time.Millisecond)
	send := func(i int) (bool, time.Time) {
		if now := time.Now(); !now.Before(stallStart) && now.Before(stallEnd) {
			time.Sleep(time.Until(stallEnd))
		}
		return true, time.Now()
	}
	out := openLoop(t0, offsets, 2, send)

	const slack = 2 // ms of scheduling noise allowed below the bound
	for i, s := range out {
		due := s.due.Sub(t0)
		switch {
		case i >= 4 && due < 150*time.Millisecond:
			// Due during the stall: at least the rest of the stall late.
			wait := float64((150*time.Millisecond - due).Milliseconds())
			if s.latencyMs() < wait-slack {
				t.Errorf("request %d due at %v: latency %.1f ms, want >= %.0f", i, due, s.latencyMs(), wait)
			}
			if i >= 6 && s.lateMs() < wait-slack {
				// Both senders are held by the stall: this one is sent late.
				t.Errorf("request %d due at %v: sent %.1f ms late, want >= %.0f", i, due, s.lateMs(), wait)
			}
		case due >= 250*time.Millisecond:
			// Long after the stall the generator is back on schedule.
			if s.lateMs() > 50 {
				t.Errorf("request %d due at %v: still %.1f ms late", i, due, s.lateMs())
			}
		}
	}
}

// A row's self time pairs each of its calls with the call of the row below
// in the same round, so a round that was slow for both rows cancels out.
// Each row's own median would put the second row below the first here.
func TestLadderSelfPairsCallsByRound(t *testing.T) {
	calls := [][]float64{
		{10, 50, 52},
		{11, 12, 53}, // rounds 1 and 3: 1 µs above the row below
		{14, 15, 56},
	}
	if a, b := median(calls[0]), median(calls[1]); b >= a {
		t.Fatalf("test data: own medians %v and %v should invert", a, b)
	}
	self := ladderSelf(calls)
	if want := []float64{50, 1, 3}; !slices.Equal(self, want) {
		t.Fatalf("ladderSelf = %v, want %v", self, want)
	}
	if rows, want := ladderStack(self), []float64{50, 51, 54}; !slices.Equal(rows, want) {
		t.Fatalf("ladderStack(%v) = %v, want %v", self, rows, want)
	}
}

func TestRoundSpansFromClientSpans(t *testing.T) {
	rec := newRecorder()
	rec.on.Store(true)
	at := func(ms float64) time.Time { return rec.t0.Add(time.Duration(ms * float64(time.Millisecond))) }
	c1 := rec.add("fed.client_train", 0, 1, at(0), at(4))
	c2 := rec.add("fed.client_train", 0, 1, at(1), at(6))
	pub := rec.add("store.append_publish", 0, 2, at(7), at(8))
	c3 := rec.add("fed.client_train", 0, 2, at(9), at(12))

	rounds, between := roundSpans(rec)
	if !slices.Equal(rounds, []float64{6, 3}) || !slices.Equal(between, []float64{3}) {
		t.Fatalf("rounds %v between %v, want [6 3] and [3]", rounds, between)
	}
	spans := map[int64]span{}
	for _, s := range rec.spans {
		spans[s.ID] = s
	}
	r1 := spans[c1].Parent
	if r1 == 0 || spans[r1].Name != "fedserve.round" || spans[c2].Parent != r1 || spans[pub].Parent != r1 {
		t.Fatalf("round 1's clients and the publish after it must share round 1's span: %+v", rec.spans)
	}
	if r2 := spans[c3].Parent; r2 == 0 || r2 == r1 {
		t.Fatalf("round 2's client must have its own round span: %+v", rec.spans)
	}
}

// The metric names the program prints are the ones BENCHMARK.json declares,
// and the program runs every workload it declares.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) == 0 {
		t.Error("no workloads declared")
	}
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("workload %s is declared, the program has no such workload", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics declared, program prints %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: declared %s (%s), program prints %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
