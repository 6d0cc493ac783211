package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mobiledl/internal/metrics"
	"mobiledl/internal/nn"
	"mobiledl/internal/store"
)

const (
	// loadConns bounds the generator: connections, open-loop senders and
	// closed-loop callers alike.
	loadConns = 2
	// setups is how many times an untraced run builds its stack; setup_s is
	// the median, and the last stack serves the traffic.
	setups = 31
	// windows is how many open-loop/closed-loop window pairs an untraced run
	// measures.
	windows = 10
	// outDir holds run scratch space and span dumps, inside the checkout.
	outDir = ".bench_build/perfbench"
)

// Shares of --seconds per phase. Untraced: warm-up, open loop (latency),
// closed loop (capacity). Traced: warm-up, untraced open loop (the overhead
// baseline), traced open loop, ladder.
const (
	warmShare         = 0.10
	openShare         = 0.70
	closedShare       = 0.20
	tracedBaseShare   = 0.25
	tracedOpenShare   = 0.35
	tracedLadderShare = 0.30
)

type bench struct {
	w      workload
	seed   int64
	total  time.Duration
	traced bool

	dir    string // this run's scratch space
	pool   []request
	seq    []int
	client *http.Client
	chk    *checker
	rec    *recorder // nil when untraced
	s      *stack

	next   int // request ids handed out so far
	phase  int64
	counts []*httpCounts
}

func newBench(w workload, seed int64, seconds int, traced bool) *bench {
	return &bench{w: w, seed: seed, total: time.Duration(seconds) * time.Second, traced: traced}
}

func (b *bench) share(f float64) time.Duration {
	return time.Duration(f * float64(b.total))
}

func (b *bench) run() (res *result, err error) {
	b.dir = filepath.Join(outDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.dir)
	if b.pool, err = makePool(b.seed, b.w.model, b.w.rows); err != nil {
		return nil, err
	}
	b.seq = order(b.seed, 1<<16)
	b.client = newClient(loadConns)
	defer b.client.CloseIdleConnections()
	if b.traced {
		b.rec = newRecorder()
	}

	setupS, ready, err := b.setup()
	if err != nil {
		return nil, err
	}
	defer func() {
		if b.s != nil {
			b.s.close()
		}
	}()
	if err := b.buildChecker(); err != nil {
		return nil, err
	}
	b.chk.check(0, ready)

	res = &result{metrics: map[string]metric{}, detail: map[string]any{
		"workload": b.w.name, "trace": b.traced, "stamp": newStamp(b.seed),
	}}
	if b.w.train {
		if err := b.s.coord.Start(); err != nil {
			return nil, err
		}
	}
	b.openPhase(b.share(warmShare), false)
	if b.traced {
		err = b.tracedPhases(res)
	} else {
		err = b.untracedPhases(res, setupS)
	}
	if err != nil {
		return nil, err
	}

	// Stop the stack before the last checks: train_serve reopens its store.
	s := b.s
	b.s = nil
	if err := s.close(); err != nil {
		return nil, err
	}
	checked, failures := b.chk.result()
	if b.w.train {
		lastVersion, lastBlob := s.pubs.lastVersion()
		if err := reopenCheck(filepath.Join(b.dir, fmt.Sprintf("store-%d", b.setupCount()-1)), b.w.model, lastVersion, lastBlob); err != nil {
			failures = append(failures, err.Error())
		}
		res.detail["published_versions"] = s.pubs.count()
	}
	for _, c := range b.counts {
		res.attempted += c.attempted.Load()
		res.failed += c.failed()
	}
	res.failures = failures
	res.correct = len(failures) == 0 && checked > 0
	res.detail["answers_checked"] = checked
	res.detail["check_failures"] = failures
	return res, nil
}

func (b *bench) setupCount() int {
	if b.traced {
		return 1
	}
	return setups
}

// setup builds the stack setupCount times, timing each build up to the
// first answered request, and keeps the last one. It returns the times in
// seconds and the first answer's body. Each build starts after a collection,
// so garbage the previous build left is not collected on this one's time.
func (b *bench) setup() (times []float64, ready []byte, err error) {
	n := b.setupCount()
	for k := 0; k < n; k++ {
		dir := filepath.Join(b.dir, fmt.Sprintf("store-%d", k))
		runtime.GC()
		t0 := time.Now()
		s, err := buildStack(b.w, b.traced, b.rec, dir)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		status, body, err := post(b.client, s.target, b.pool[0].body)
		elapsed := time.Since(t0)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		if err != nil {
			s.close()
			return nil, nil, fmt.Errorf("setup: first request: %w", err)
		}
		times = append(times, elapsed.Seconds())
		if k == n-1 {
			b.s = s
			return times, body, nil
		}
		if err := s.close(); err != nil {
			return nil, nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
		b.client.CloseIdleConnections()
	}
	return nil, nil, fmt.Errorf("setup: no stack built")
}

// buildChecker builds the answer oracle: for a fixed model the benchmark's
// own copy built from the same seed, for train_serve the weights of every
// version as it is published.
func (b *bench) buildChecker() error {
	var o oracle
	if b.w.train {
		o = &trainOracle{log: b.s.pubs, factory: b.s.factory, pool: b.pool, nets: map[int]*nn.Sequential{}}
	} else {
		ref, err := b.s.factory()
		if err != nil {
			return err
		}
		if o, err = newFixedOracle(b.s.version, ref, b.pool); err != nil {
			return err
		}
	}
	b.chk = &checker{o: o, rows: b.w.rows}
	return nil
}

// sender sends request ids base+i to url, counting outcomes and checking
// every answer; traced records one span per request.
func (b *bench) sender(url string, counts *httpCounts, base int, traced bool) sendFunc {
	return func(i int) (bool, time.Time) {
		id := base + i
		req := b.seq[id%len(b.seq)]
		t0 := time.Now()
		status, body, err := post(b.client, url, b.pool[req].body)
		end := time.Now()
		if traced {
			b.rec.add("request", 0, int64(id), t0, end)
		}
		counts.observe(status, err)
		if err != nil || status != http.StatusOK {
			return false, end
		}
		b.chk.check(req, body)
		return true, end
	}
}

func (b *bench) newCounts() *httpCounts {
	c := &httpCounts{}
	b.counts = append(b.counts, c)
	return c
}

// openPhase runs the workload's open loop for d.
func (b *bench) openPhase(d time.Duration, traced bool) ([]sample, *httpCounts) {
	b.phase++
	offsets := poissonOffsets(b.seed+1000*b.phase, b.w.rate, d)
	counts := b.newCounts()
	base := b.next
	b.next += len(offsets)
	return openLoop(time.Now(), offsets, loadConns, b.sender(b.s.target, counts, base, traced)), counts
}

// closedPhase runs loadConns closed-loop callers for d.
func (b *bench) closedPhase(d time.Duration) (ok int, elapsed time.Duration) {
	base := b.next
	sent, ok, elapsed := closedLoop(time.Now().Add(d), loadConns, b.sender(b.s.target, b.newCounts(), base, false))
	b.next += sent
	return ok, elapsed
}

func latencies(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.latencyMs()
	}
	return sortedCopy(out)
}

func (b *bench) rounds() int {
	if b.s.coord == nil {
		return 0
	}
	return b.s.coord.Status().Round
}

// untracedPhases measures the end-to-end metrics. The measured time is cut
// into windows that alternate an open-loop and a closed-loop stretch, so both
// loops sample the machine across the whole run; p50 pools the open-loop
// stretches. The closed-loop capacity and CPU per request and the tail go on
// the report line, not the result line: on a shared two-core host they move
// between runs by more than any bound (see README.md).
func (b *bench) untracedPhases(res *result, setupS []float64) error {
	round0, t0 := b.rounds(), time.Now()
	var lat []float64
	var ok int
	var closed, cpu time.Duration
	var perWindow []map[string]float64
	for k := 0; k < windows; k++ {
		samples, _ := b.openPhase(b.share(openShare/windows), false)
		cpu0, _ := usage()
		n, elapsed := b.closedPhase(b.share(closedShare / windows))
		cpu1, _ := usage()
		wlat := latencies(samples)
		lat = append(lat, wlat...)
		ok, closed, cpu = ok+n, closed+elapsed, cpu+cpu1-cpu0
		perWindow = append(perWindow, map[string]float64{
			"p50_ms":         quantile(wlat, 0.5),
			"capacity_rps":   float64(n) / elapsed.Seconds(),
			"cpu_ms_per_req": float64((cpu1 - cpu0).Nanoseconds()) / 1e6 / float64(max(n, 1)),
		})
	}
	roundsPerS := float64(b.rounds()-round0) / time.Since(t0).Seconds()
	_, peakKB := usage()
	if ok == 0 {
		return fmt.Errorf("closed loop: no request succeeded")
	}

	lat = sortedCopy(lat)
	set := func(name string, v float64, n int) { res.metrics[name] = metric{v, unitOf(endToEnd, name), n} }
	set("setup_s", median(setupS), len(setupS))
	set("p50_ms", quantile(lat, 0.5), len(lat))
	set("peak_rss_mb", float64(peakKB)/1024, 1)
	res.detail["closed_loop"] = map[string]metric{
		"capacity_rps":   {float64(ok) / closed.Seconds(), "1/s", ok},
		"cpu_ms_per_req": {float64(cpu.Nanoseconds()) / 1e6 / float64(ok), "ms", ok},
	}
	t, supported := supportedTail(lat)
	res.detail["tail"] = map[string]any{
		"supported": supported, "highest": t,
		"p90_ms": quantile(lat, 0.9), "p99_ms": quantile(lat, 0.99), "samples": len(lat),
	}
	res.detail["windows"] = perWindow
	if b.w.train {
		res.detail["rounds_per_s"] = roundsPerS
	}
	res.detail["setup_s_all"] = setupS
	return nil
}

// snapshot is the counters read around the traced open loop.
type snapshot struct {
	direct, router *metrics.Scrape
	mem            runtime.MemStats
	store          store.Stats
}

func (b *bench) snap() (snapshot, error) {
	var sn snapshot
	var err error
	if sn.direct, err = metrics.ScrapeURL(b.s.direct.url + "/metrics"); err != nil {
		return sn, err
	}
	if sn.router, err = metrics.ScrapeURL(b.s.router.url + "/metrics"); err != nil {
		return sn, err
	}
	runtime.ReadMemStats(&sn.mem)
	if b.s.st != nil {
		sn.store = b.s.st.Stats()
	}
	return sn, nil
}

// peakGoroutines samples runtime.NumGoroutine until stop is closed.
func peakGoroutines(stop <-chan struct{}) (peak func() int) {
	var mu sync.Mutex
	highest := runtime.NumGoroutine()
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				n := runtime.NumGoroutine()
				mu.Lock()
				highest = max(highest, n)
				mu.Unlock()
			}
		}
	}()
	return func() int {
		<-done
		mu.Lock()
		defer mu.Unlock()
		return highest
	}
}

// tracedPhases measures the per-layer metrics.
func (b *bench) tracedPhases(res *result) error {
	base, _ := b.openPhase(b.share(tracedBaseShare), false)

	before, err := b.snap()
	if err != nil {
		return err
	}
	b.rec.on.Store(true)
	stop := make(chan struct{})
	peak := peakGoroutines(stop)
	round0, t0 := b.rounds(), time.Now()
	samples, counts := b.openPhase(b.share(tracedOpenShare), true)
	roundsPerS := float64(b.rounds()-round0) / time.Since(t0).Seconds()
	close(stop)
	after, err := b.snap()
	if err != nil {
		return err
	}
	if b.w.train {
		if err := b.pauseTraining(); err != nil {
			return err
		}
	}
	lad, err := runLadder(b.s, b.pool, b.chk, b.client, b.rec, b.share(tracedLadderShare))
	if err != nil {
		return err
	}

	m := map[string]float64{}
	n := map[string]int{}
	put := func(name string, v float64, samples int) { m[name], n[name] = v, samples }
	selfUs, medianUs := map[string]float64{}, map[string]float64{}
	for i, row := range ladderRows {
		put("ladder."+row+"_us", lad.rows[i], lad.rounds)
		selfUs[row], medianUs[row] = lad.self[i], lad.medians[i]
	}
	res.detail["ladder_self_us"] = selfUs
	res.detail["ladder_median_us"] = medianUs

	d := func(sc0, sc1 *metrics.Scrape, name string) float64 { return sc1.Sum(name) - sc0.Sum(name) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	batches := d(before.direct, after.direct, "mobiledl_batches_total")
	queued := d(before.direct, after.direct, "mobiledl_queue_latency_ms_count")
	put("batcher.queue_ms_mean", ratio(d(before.direct, after.direct, "mobiledl_queue_latency_ms_sum"), queued), int(queued))
	put("batcher.rows_per_batch", ratio(d(before.direct, after.direct, "mobiledl_batch_rows_total"), batches), int(batches))
	put("batcher.shed", d(before.direct, after.direct, "mobiledl_requests_shed_total"), 1)
	put("batcher.expired", d(before.direct, after.direct, "mobiledl_requests_expired_total"), 1)
	execs := d(before.direct, after.direct, "mobiledl_exec_latency_ms_count")
	put("exec.ms_mean", ratio(d(before.direct, after.direct, "mobiledl_exec_latency_ms_sum"), execs), int(execs))

	attempted := counts.attempted.Load()
	put("http.attempted", float64(attempted), 1)
	put("http.failed_4xx", float64(counts.c4xx.Load()), 1)
	put("http.failed_429", float64(counts.c429.Load()), 1)
	put("http.failed_5xx", float64(counts.c5xx.Load()), 1)
	put("http.failed_504", float64(counts.c504.Load()), 1)
	put("http.failed_conn", float64(counts.conn.Load()), 1)

	put("cluster.hop_us", lad.self[len(ladderRows)-1], lad.rounds)
	put("cluster.forwards", d(before.router, after.router, "mobiledl_cluster_forwards_total"), 1)
	put("cluster.forward_errors", d(before.router, after.router, "mobiledl_cluster_forward_errors_total"), 1)
	put("cluster.hop_rejects", d(before.router, after.router, "mobiledl_cluster_hop_rejects_total"), 1)

	if b.w.train {
		b.trainMetrics(put, roundsPerS, before.store, after.store)
	}

	perReq := float64(max(attempted, 1))
	put("go.alloc_kb_per_req", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/1024/perReq, int(attempted))
	put("go.gc_per_kreq", float64(after.mem.NumGC-before.mem.NumGC)*1000/perReq, int(attempted))
	put("go.goroutines_peak", float64(peak()), 1)

	late := make([]float64, len(samples))
	for i, s := range samples {
		late[i] = s.lateMs()
	}
	put("gen.late_ms_p99", quantile(sortedCopy(late), 0.99), len(late))
	p50Base, p50Traced := quantile(latencies(base), 0.5), quantile(latencies(samples), 0.5)
	put("trace.overhead_pct", 100*(p50Traced-p50Base)/p50Base, len(samples))

	for _, def := range perLayer {
		res.metrics[def.name] = metric{m[def.name], def.unit, n[def.name]}
		b.rec.counter(def.name, m[def.name])
	}
	path := filepath.Join(outDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", b.w.name, b.seed))
	if err := b.rec.dump(path); err != nil {
		return err
	}
	res.detail["spans_file"] = path
	return nil
}

// pauseTraining pauses the coordinator and waits for the round in flight to
// publish, so the ladder times a model that stays put.
func (b *bench) pauseTraining() error {
	if err := b.s.coord.Pause(); err != nil {
		return err
	}
	const quiet = 200 * time.Millisecond
	last, _ := b.s.pubs.lastVersion()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		time.Sleep(quiet)
		v, _ := b.s.pubs.lastVersion()
		if v == last {
			return nil
		}
		last = v
	}
	return fmt.Errorf("training kept publishing after pause")
}

// trainMetrics derives the federated, fedserve and store metrics from the
// spans the wrapped seams recorded.
func (b *bench) trainMetrics(put func(string, float64, int), roundsPerS float64, st0, st1 store.Stats) {
	rounds, between := roundSpans(b.rec)
	clients := durationsMs(b.rec.named("fed.client_train"))
	put("fed.client_train_ms_mean", mean(clients), len(clients))
	put("fed.client_train_ms_p90", quantile(sortedCopy(clients), 0.9), len(clients))
	put("fed.clients", float64(len(clients)), 1)
	put("fedserve.rounds_per_s", roundsPerS, len(rounds))
	put("fedserve.round_ms", mean(rounds), len(rounds))
	put("fedserve.between_rounds_ms", mean(between), len(between))
	pubs := durationsMs(b.rec.named("store.append_publish"))
	cks := durationsMs(b.rec.named("store.save_checkpoint"))
	put("store.append_publish_ms", mean(pubs), len(pubs))
	put("store.save_checkpoint_ms", mean(cks), len(cks))
	put("store.appends", float64(st1.Appends-st0.Appends), 1)
	put("store.compactions", float64(st1.Compactions-st0.Compactions), 1)
	put("store.wal_bytes", float64(st1.WALBytes), 1)
}

// reopenCheck reopens a closed store and requires that it recovers exactly
// the last published version of model.
func reopenCheck(dir, model string, version int, blob []byte) error {
	st, err := store.Open(store.Options{Dir: dir, Logger: benchLogger()})
	if err != nil {
		return fmt.Errorf("reopen store: %w", err)
	}
	defer st.Close()
	got := 0
	var weights []byte
	for _, rec := range st.Publishes() {
		if rec.Model == model && rec.Version > got {
			got, weights = rec.Version, rec.Weights
		}
	}
	if got != version || !bytes.Equal(weights, blob) {
		return fmt.Errorf("reopened store recovers %s v%d, last published v%d (weights equal: %v)",
			model, got, version, bytes.Equal(weights, blob))
	}
	return nil
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}
