package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mobiledl/internal/serve"
)

// Inputs

const (
	inputDim = 64
	classes  = 10
	// poolSize distinct requests are drawn from the seed; traffic replays
	// them in a seeded order, so answers can be checked against references
	// computed once.
	poolSize = 64
)

// request is one generated predict call: its feature rows and the encoded
// body the program receives.
type request struct {
	rows [][]float64
	body []byte
}

// makePool draws poolSize requests of rows x inputDim features from seed.
func makePool(seed int64, model string, rows int) ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]request, poolSize)
	for i := range pool {
		feats := make([][]float64, rows)
		for r := range feats {
			feats[r] = make([]float64, inputDim)
			for j := range feats[r] {
				feats[r][j] = rng.NormFloat64()
			}
		}
		// encoding/json writes the shortest form that parses back to the
		// same float64, so the server sees exactly these values.
		body, err := json.Marshal(serve.PredictRequest{Model: model, Features: feats})
		if err != nil {
			return nil, err
		}
		pool[i] = request{rows: feats, body: body}
	}
	return pool, nil
}

// order is the seeded sequence of pool indices traffic replays.
func order(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(poolSize)
	}
	return out
}

// poissonOffsets is an open-loop arrival schedule: independent users at rate
// req/s for dur, as offsets from the phase start.
func poissonOffsets(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed ^ 0xa11))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= dur {
			return out
		}
		out = append(out, off)
	}
}

// Load shapes

// sample is one open-loop request's timing.
type sample struct {
	due, start, end time.Time
	ok              bool
}

// latencyMs is the request's latency timed from when it was due, so waiting
// behind a stall counts; a failed request misses every limit.
func (s sample) latencyMs() float64 {
	if !s.ok {
		return failedMs
	}
	return float64(s.end.Sub(s.due).Nanoseconds()) / 1e6
}

// lateMs is how long after its due time the request went out.
func (s sample) lateMs() float64 {
	if d := s.start.Sub(s.due); d > 0 {
		return float64(d.Nanoseconds()) / 1e6
	}
	return 0
}

// sendFunc sends request i and reports whether it succeeded and when its
// answer arrived (checking the answer may take longer).
type sendFunc func(i int) (ok bool, end time.Time)

// openLoop sends request i at t0+offsets[i] through `senders` concurrent
// senders. A due request waits for a free sender rather than being dropped,
// so a stalled server delays every later request, and that delay is part of
// each one's latency.
func openLoop(t0 time.Time, offsets []time.Duration, senders int, send sendFunc) []sample {
	out := make([]sample, len(offsets))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				s := &out[i]
				s.start = time.Now()
				s.ok, s.end = send(i)
			}
		}()
	}
	for i, off := range offsets {
		due := t0.Add(off)
		out[i].due = due
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// closedLoop runs `callers` callers that each send their next request as
// soon as the previous one returns, until deadline. It returns the requests
// sent, the successes and the elapsed time.
func closedLoop(deadline time.Time, callers int, send sendFunc) (sent, ok int, elapsed time.Duration) {
	var next, okN atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if ok, _ := send(int(next.Add(1) - 1)); ok {
					okN.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(next.Load()), int(okN.Load()), time.Since(start)
}

// HTTP sender

// httpCounts classifies every request sent over HTTP.
type httpCounts struct {
	attempted, c4xx, c429, c5xx, c504, conn atomic.Int64
}

func (c *httpCounts) failed() int64 {
	return c.c4xx.Load() + c.c429.Load() + c.c5xx.Load() + c.c504.Load() + c.conn.Load()
}

func (c *httpCounts) observe(status int, err error) {
	c.attempted.Add(1)
	switch {
	case err != nil:
		c.conn.Add(1)
	case status == http.StatusOK:
		// Answered; the checker judges the answer.
	case status == http.StatusTooManyRequests:
		c.c429.Add(1)
	case status == http.StatusGatewayTimeout:
		c.c504.Add(1)
	case status >= 500:
		c.c5xx.Add(1)
	default:
		c.c4xx.Add(1)
	}
}

// newClient is the load generator's HTTP client: at most `conns`
// connections, reused across requests.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// post sends one predict body and returns the status and response body.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}
