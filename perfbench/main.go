// Command perfbench is the repository's benchmark. It runs one workload
// against the real serving, cluster and train-to-serve stack in this
// process, drives it over loopback HTTP from its own seeded load generator,
// checks every answer, and prints each metric with its unit and sample count.
//
//	perfbench --workload predict_small --seed 1 --seconds 60 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs the
// workload again with spans recorded around calls into each layer's public
// entry points, prints the per-layer metrics, and writes the spans and
// counters to .bench_build/perfbench/traces/. The last line of standard
// output is one JSON object: correct, attempted, failed and metrics.
// run.sh builds and runs it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// workload is one traffic mix. Rates are fixed: comparisons across commits
// need identical offered load.
type workload struct {
	name    string
	model   string
	hidden  []int   // MLP hidden widths between 64 inputs and 10 classes
	rows    int     // feature rows per request
	rate    float64 // open-loop arrivals, req/s
	cluster bool    // traffic enters through a model-less router node
	train   bool    // a federated coordinator republishes the model meanwhile
}

var workloads = []workload{
	// Per-request overhead: the batcher window and HTTP framing dominate.
	{name: "predict_small", model: "mlp", hidden: []int{64, 64}, rows: 1, rate: 250},
	// Every request fills MaxBatch: tensor kernels and the JSON codec dominate.
	{name: "predict_batch", model: "mlp", hidden: []int{256, 256}, rows: 32, rate: 150},
	// predict_batch through a router: cluster routing and a second hop.
	{name: "cluster_hop", model: "mlp", hidden: []int{256, 256}, rows: 32, rate: 120, cluster: true},
	// Federated rounds publish (fsync'd) beside small predicts.
	{name: "train_serve", model: "fedmlp", hidden: []int{64, 64}, rows: 1, rate: 100, train: true},
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run (--trace 1).
var perLayer = []metricDef{
	{"ladder.kernel_us", "us"},
	{"ladder.forward_us", "us"},
	{"ladder.backend_us", "us"},
	{"ladder.runtime_us", "us"},
	{"ladder.handler_us", "us"},
	{"ladder.loopback_us", "us"},
	{"ladder.cluster_hop_us", "us"},
	{"batcher.queue_ms_mean", "ms"},
	{"batcher.rows_per_batch", "rows"},
	{"batcher.shed", "count"},
	{"batcher.expired", "count"},
	{"exec.ms_mean", "ms"},
	{"http.attempted", "count"},
	{"http.failed_4xx", "count"},
	{"http.failed_429", "count"},
	{"http.failed_5xx", "count"},
	{"http.failed_504", "count"},
	{"http.failed_conn", "count"},
	{"cluster.hop_us", "us"},
	{"cluster.forwards", "count"},
	{"cluster.forward_errors", "count"},
	{"cluster.hop_rejects", "count"},
	{"fed.client_train_ms_mean", "ms"},
	{"fed.client_train_ms_p90", "ms"},
	{"fed.clients", "count"},
	{"fedserve.rounds_per_s", "1/s"},
	{"fedserve.round_ms", "ms"},
	{"fedserve.between_rounds_ms", "ms"},
	{"store.append_publish_ms", "ms"},
	{"store.save_checkpoint_ms", "ms"},
	{"store.appends", "count"},
	{"store.compactions", "count"},
	{"store.wal_bytes", "bytes"},
	{"go.alloc_kb_per_req", "KB"},
	{"go.gc_per_kreq", "count"},
	{"go.goroutines_peak", "count"},
	{"gen.late_ms_p99", "ms"},
	{"trace.overhead_pct", "%"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed for the generated traffic")
	seconds := fs.Int("seconds", 30, "measured seconds")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer run, 0 the end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(stderr, "perfbench: need --workload %s, --seconds >= 1 and --trace 0|1\n", strings.Join(names, "|"))
		return 2
	}
	b := newBench(w, *seed, *seconds, *traced == 1)
	res, err := b.run()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, f := range res.failures {
		fmt.Fprintln(stderr, "perfbench: check failed:", f)
	}
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// result is everything one run reports.
type result struct {
	correct           bool
	attempted, failed int64
	metrics           map[string]metric
	failures          []string
	// detail goes on the report line only.
	detail map[string]any
}

// printResult writes the report line (every metric with its unit and sample
// count, plus provenance and detail), then the result line: correct,
// attempted, failed and each metric's value and unit.
func printResult(w io.Writer, res *result) error {
	report := map[string]any{"metrics": res.metrics}
	for k, v := range res.detail {
		report[k] = v
	}
	line, err := json.Marshal(report)
	if err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := make(map[string]value, len(res.metrics))
	for k, m := range res.metrics {
		vals[k] = value{m.Value, m.Unit}
	}
	last, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, vals})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", line, last)
	return err
}
