package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"mobiledl/internal/mobile"
	"mobiledl/internal/nn"
	"mobiledl/internal/serve"
	"mobiledl/internal/tensor"
)

// ladderRows is the layer ladder, bottom to top. Each row times one public
// entry point on the workload's own requests, one caller at a time; a
// layer's self time is its row minus the row below.
var ladderRows = []string{"kernel", "forward", "backend", "runtime", "handler", "loopback", "cluster_hop"}

// ladderMinRounds is the fewest calls per row, however long they take.
const ladderMinRounds = 20

// ladderSelf turns each row's call times, one per round, into self times.
// The bottom row's self time is its median call. Every other row's is the
// median over rounds of its call minus the call of the row below in the
// same round: rows run back to back on the same request, so pairing them
// cancels drift in the machine's speed that lands on both.
func ladderSelf(calls [][]float64) []float64 {
	self := make([]float64, len(calls))
	for i, row := range calls {
		if i == 0 {
			self[i] = median(row)
			continue
		}
		d := make([]float64, min(len(row), len(calls[i-1])))
		for k := range d {
			d[k] = row[k] - calls[i-1][k]
		}
		self[i] = median(d)
	}
	return self
}

// ladderStack stacks self times into rows: each row is the row below plus
// its own self time, so a row sits below the one under it exactly when its
// self time is negative.
func ladderStack(self []float64) []float64 {
	rows := make([]float64, len(self))
	for i, v := range self {
		rows[i] = v
		if i > 0 {
			rows[i] += rows[i-1]
		}
	}
	return rows
}

// ladder is what runLadder measured, indexed like ladderRows, in µs.
type ladder struct {
	rows    []float64 // stacked self times
	self    []float64
	medians []float64 // each row's own median call
	rounds  int
}

// runLadder times every ladder row against the stack and derives the rows
// from the spans it recorded. Rows take turns, bottom to top, on the same
// request, so each row runs right after the row below it on the same input.
func runLadder(s *stack, pool []request, chk *checker, client *http.Client, rec *recorder, budget time.Duration) (ladder, error) {
	loaded, err := s.reg.Get(s.w.model)
	if err != nil {
		return ladder{}, err
	}
	backend, ok := loaded.Backend.(*serve.DenseBackend)
	if !ok {
		return ladder{}, fmt.Errorf("ladder: %q is not a dense backend", s.w.model)
	}
	calls, err := ladderCalls(s, pool, loaded.Version, backend, chk, client)
	if err != nil {
		return ladder{}, err
	}
	start := time.Now()
	ids := make(map[string][]int64, len(ladderRows))
	for n := 0; n < ladderMinRounds || time.Since(start) < budget; n++ {
		i := n % len(pool)
		for _, row := range ladderRows {
			// An untimed call first, so the timed one finds the caches as
			// this row leaves them, not as the row before left them.
			if err := calls[row](i); err != nil {
				return ladder{}, fmt.Errorf("ladder %s: %w", row, err)
			}
			t0 := time.Now()
			if err := calls[row](i); err != nil {
				return ladder{}, fmt.Errorf("ladder %s: %w", row, err)
			}
			ids[row] = append(ids[row], rec.add("ladder."+row, 0, int64(i), t0, time.Now()))
		}
	}
	root := rec.add("ladder", 0, 0, start, time.Now())
	parents := map[int64]int64{}
	// Spans of a row in start order are its calls in round order.
	times := make([][]float64, len(ladderRows))
	var out ladder
	for i, row := range ladderRows {
		for _, id := range ids[row] {
			parents[id] = root
		}
		for _, sp := range rec.named("ladder." + row) {
			times[i] = append(times[i], sp.durUs())
		}
		out.medians = append(out.medians, median(times[i]))
	}
	rec.reparent(parents)
	out.self = ladderSelf(times)
	out.rows = ladderStack(out.self)
	out.rounds = len(times[0])
	return out, nil
}

// ladderCalls builds one call per row; call(i) runs pool request i through
// that row's entry point and checks what comes back.
func ladderCalls(s *stack, pool []request, version int, backend *serve.DenseBackend, chk *checker, client *http.Client) (map[string]func(int) error, error) {
	net := backend.Net()
	kernels, err := kernelInputs(net, pool)
	if err != nil {
		return nil, err
	}
	xs := make([]*tensor.Matrix, len(pool))
	for i, r := range pool {
		if xs[i], err = tensor.FromRows(r.rows); err != nil {
			return nil, err
		}
	}
	env := serve.NewExecEnv(mobile.Device{}, mobile.Device{}, mobile.WiFiNetwork(), modelSeed)
	// expect checks row classes against the reference of the version that
	// served each row.
	expect := func(i int, got, versions []int) error {
		for r := range got {
			want, known, err := chk.o.classes(versions[r], i)
			if err != nil || !known {
				return fmt.Errorf("no reference for version %d: %v", versions[r], err)
			}
			if got[r] != want[r] {
				return fmt.Errorf("request %d row %d: class %d, reference %d", i, r, got[r], want[r])
			}
		}
		return nil
	}
	viaHTTP := func(url string) func(int) error {
		return func(i int) error {
			status, body, err := post(client, url, pool[i].body)
			if err != nil {
				return err
			}
			if status != http.StatusOK {
				return fmt.Errorf("status %d: %s", status, body)
			}
			chk.check(i, body)
			return nil
		}
	}
	handler := s.srv.Handler()
	return map[string]func(int) error{
		"kernel": func(i int) error {
			for _, k := range kernels[i] {
				if err := tensor.MatMulInto(k.dst, k.x, k.w); err != nil {
					return err
				}
			}
			return nil
		},
		"forward": func(i int) error {
			_, err := net.Forward(xs[i], false)
			return err
		},
		"backend": func(i int) error {
			res, err := backend.RunBatch(context.Background(), env, xs[i], serve.RequestOptions{})
			if err != nil {
				return err
			}
			got := make([]int, len(res.Results))
			versions := make([]int, len(res.Results))
			for r, x := range res.Results {
				got[r], versions[r] = x.Class, version
			}
			return expect(i, got, versions)
		},
		"runtime": func(i int) error {
			// The handler's fan-out: one goroutine per row, under its budget.
			ctx, cancel := context.WithTimeout(context.Background(), requestBudget)
			defer cancel()
			rows := pool[i].rows
			got := make([]int, len(rows))
			versions := make([]int, len(rows))
			errs := make([]error, len(rows))
			var wg sync.WaitGroup
			for r := range rows {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					res, err := s.rt.PredictWith(ctx, rows[r], serve.RequestOptions{})
					got[r], versions[r], errs[r] = res.Class, res.ModelVersion, err
				}(r)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			return expect(i, got, versions)
		},
		"handler": func(i int) error {
			rr := httptest.NewRecorder()
			handler.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(pool[i].body)))
			if rr.Code != http.StatusOK {
				return fmt.Errorf("status %d: %s", rr.Code, rr.Body.String())
			}
			chk.check(i, rr.Body.Bytes())
			return nil
		},
		"loopback":    viaHTTP(s.direct.url + "/v1/predict"),
		"cluster_hop": viaHTTP(s.router.url + "/v1/predict"),
	}, nil
}

// kernelCall is one Dense layer's matrix product for one request.
type kernelCall struct{ dst, x, w *tensor.Matrix }

// kernelInputs precomputes, for every request, the input each Dense layer
// sees, so the kernel row times tensor.MatMulInto alone at each shape.
func kernelInputs(net *nn.Sequential, pool []request) ([][]kernelCall, error) {
	out := make([][]kernelCall, len(pool))
	for i, r := range pool {
		x, err := tensor.FromRows(r.rows)
		if err != nil {
			return nil, err
		}
		for _, l := range net.Layers() {
			if d, ok := l.(*nn.Dense); ok {
				w := d.Weights().Value
				out[i] = append(out[i], kernelCall{dst: tensor.New(x.Rows(), w.Cols()), x: x, w: w})
			}
			if x, err = l.Forward(x, false); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
