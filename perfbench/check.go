package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"mobiledl/internal/federated"
	"mobiledl/internal/nn"
	"mobiledl/internal/serve"
	"mobiledl/internal/tensor"
)

// referenceClasses is the benchmark's own answer for a request: the argmax
// of nn.Sequential.Forward on the request's rows.
func referenceClasses(net *nn.Sequential, rows [][]float64) ([]int, error) {
	x, err := tensor.FromRows(rows)
	if err != nil {
		return nil, err
	}
	logits, err := net.Forward(x, false)
	if err != nil {
		return nil, err
	}
	out := make([]int, logits.Rows())
	for i := range out {
		row := logits.Row(i)
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		out[i] = best
	}
	return out, nil
}

// oracle gives the reference classes of pool request req under a model
// version. known is false for a version not (yet) seen published.
type oracle interface {
	classes(version, req int) (cls []int, known bool, err error)
}

// fixedOracle serves a model installed once: one version, answers computed
// before traffic starts.
type fixedOracle struct {
	version int
	answers [][]int
}

func newFixedOracle(version int, net *nn.Sequential, pool []request) (*fixedOracle, error) {
	o := &fixedOracle{version: version, answers: make([][]int, len(pool))}
	for i, r := range pool {
		cls, err := referenceClasses(net, r.rows)
		if err != nil {
			return nil, err
		}
		o.answers[i] = cls
	}
	return o, nil
}

func (o *fixedOracle) classes(version, req int) ([]int, bool, error) {
	if version != o.version {
		return nil, false, nil
	}
	return o.answers[req], true, nil
}

// keepBlobs bounds how many recent published versions keep their weights for
// checking. Answers arrive milliseconds after a publish, far inside this.
const keepBlobs = 64

// publishLog wraps the registry's serve.Store seam: it records every
// published version and its weights, so answers can be checked against the
// exact weights served, and times each durable append when traced.
type publishLog struct {
	serve.Store
	rec *recorder

	mu       sync.Mutex
	versions map[int]bool
	blobs    map[int][]byte
	last     int
}

func newPublishLog(st serve.Store, rec *recorder) *publishLog {
	return &publishLog{Store: st, rec: rec, versions: make(map[int]bool), blobs: make(map[int][]byte)}
}

// AppendPublish implements serve.Store.
func (p *publishLog) AppendPublish(rec serve.PublishRecord) error {
	p.mu.Lock()
	p.versions[rec.Version] = true
	p.blobs[rec.Version] = rec.Weights
	delete(p.blobs, rec.Version-keepBlobs)
	if rec.Version > p.last {
		p.last = rec.Version
	}
	p.mu.Unlock()
	start := time.Now()
	err := p.Store.AppendPublish(rec)
	p.rec.add("store.append_publish", 0, int64(rec.Version), start, time.Now())
	return err
}

func (p *publishLog) lastVersion() (int, []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.last, p.blobs[p.last]
}

func (p *publishLog) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.versions)
}

// trainOracle checks answers from a model that is republished while traffic
// runs: each version's reference is rebuilt from the weights it was
// published with.
type trainOracle struct {
	log     *publishLog
	factory federated.ModelFactory
	pool    []request

	mu    sync.Mutex
	nets  map[int]*nn.Sequential
	order []int // cached versions, oldest first
}

func (o *trainOracle) classes(version, req int) ([]int, bool, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	net, ok := o.nets[version]
	if !ok {
		o.log.mu.Lock()
		published, blob := o.log.versions[version], o.log.blobs[version]
		o.log.mu.Unlock()
		if !published {
			return nil, false, nil
		}
		if blob == nil {
			return nil, true, fmt.Errorf("version %d: weights no longer retained", version)
		}
		var err error
		if net, err = o.factory(); err != nil {
			return nil, true, err
		}
		if err := nn.DecodeWeights(net, blob); err != nil {
			return nil, true, err
		}
		o.nets[version] = net
		o.order = append(o.order, version)
		if len(o.order) > 8 {
			delete(o.nets, o.order[0])
			o.order = o.order[1:]
		}
	}
	cls, err := referenceClasses(net, o.pool[req].rows)
	return cls, true, err
}

// checker verifies every 200 answer: the right number of rows, a published
// model version, and each class equal to the reference.
type checker struct {
	o    oracle
	rows int

	mu       sync.Mutex
	checked  int
	pending  []pendingRow
	failures []string
}

// pendingRow is an answer from a version whose publish had not been logged
// when the answer arrived (the registry swaps before it persists).
type pendingRow struct {
	req, row, version, class int
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	} else if len(c.failures) == 20 {
		c.failures = append(c.failures, "further failures omitted")
	}
}

// check verifies the answer body to pool request req.
func (c *checker) check(req int, body []byte) {
	c.retry(true)
	var resp serve.PredictResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		c.fail("request %d: undecodable answer: %v", req, err)
		return
	}
	if len(resp.Rows) != c.rows {
		c.fail("request %d: %d rows answered, %d sent", req, len(resp.Rows), c.rows)
		return
	}
	for i, row := range resp.Rows {
		c.checkRow(pendingRow{req: req, row: i, version: row.ModelVersion, class: row.Class}, true)
	}
	c.mu.Lock()
	c.checked++
	c.mu.Unlock()
}

func (c *checker) checkRow(p pendingRow, mayWait bool) {
	cls, known, err := c.o.classes(p.version, p.req)
	switch {
	case err != nil:
		c.fail("request %d row %d: reference: %v", p.req, p.row, err)
	case !known && mayWait:
		c.mu.Lock()
		c.pending = append(c.pending, p)
		c.mu.Unlock()
	case !known:
		c.fail("request %d row %d: model_version %d was never published", p.req, p.row, p.version)
	case cls[p.row] != p.class:
		c.fail("request %d row %d (v%d): class %d, reference %d", p.req, p.row, p.version, p.class, cls[p.row])
	}
}

// retry re-checks answers that were waiting on a publish. With mayWait
// they may wait longer; without, a version still unknown fails.
func (c *checker) retry(mayWait bool) {
	c.mu.Lock()
	pending := c.pending
	c.pending = nil
	c.mu.Unlock()
	for _, p := range pending {
		c.checkRow(p, mayWait)
	}
}

// result settles every waiting answer and returns the count of answers
// checked and the failures; call it once traffic has stopped.
func (c *checker) result() (checked int, failures []string) {
	c.retry(false)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.checked, append([]string(nil), c.failures...)
}
