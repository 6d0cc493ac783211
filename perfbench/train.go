package main

import (
	"fmt"
	"log/slog"
	"math/rand"
	"sort"
	"time"

	"mobiledl/internal/data"
	"mobiledl/internal/federated"
	"mobiledl/internal/fedserve"
	"mobiledl/internal/serve"
	"mobiledl/internal/store"
	"mobiledl/internal/tensor"
)

// The federated task of train_serve.
const (
	fedSamples = 2000
	fedShards  = 32
	fedCohort  = 8
	fedWorkers = 2
	// fedRoundPause paces the coordinator. Flat out, a round takes about
	// 25 ms of both cores of a 2-vCPU host, so the pause leaves serving about
	// half the CPU; rounds_per_s still moves with the round's own cost.
	fedRoundPause = 25 * time.Millisecond
)

// buildTraining opens a fsync'd store in dir and builds a coordinator that
// publishes every round into the registry through it, checkpointing every
// round. The coordinator publishes its initial model before returning.
func (s *stack) buildTraining(rec *recorder, dir string, logger *slog.Logger) error {
	fb, err := data.GenerateFedBench(data.FedBenchConfig{
		Samples: fedSamples, Classes: classes, Dim: inputDim, Spread: 1.3, Seed: modelSeed + 100,
	})
	if err != nil {
		return err
	}
	trX, trY, teX, teY, err := fb.Split(0.8)
	if err != nil {
		return err
	}
	shards, err := data.ShardNonIID(rand.New(rand.NewSource(modelSeed+101)), trX, trY, fedShards)
	if err != nil {
		return err
	}
	if s.st, err = store.Open(store.Options{Dir: dir, Logger: logger}); err != nil {
		return fmt.Errorf("open store: %w", err)
	}
	factory := s.factory
	err = s.reg.Register(s.w.model, func() (serve.Backend, error) {
		m, err := factory()
		if err != nil {
			return nil, err
		}
		return serve.NewDenseBackend(m)
	})
	if err != nil {
		return err
	}
	s.pubs = newPublishLog(s.st, rec)
	s.reg.SetStore(s.pubs)
	var trainer federated.Trainer = &federated.SGDTrainer{
		Factory: factory, Classes: classes, Epochs: 2, Batch: 32, LR: 0.08,
	}
	var ck fedserve.CheckpointStore = s.st
	if rec != nil {
		trainer = &timedTrainer{inner: trainer, rec: rec}
		ck = &timedCheckpoints{inner: s.st, rec: rec}
	}
	s.coord, err = fedserve.NewCoordinator(fedserve.Config{
		Factory: factory, Shards: shards, Classes: classes, EvalX: teX, EvalY: teY,
		Cohort: fedCohort, Workers: fedWorkers, Quorum: 1, Seed: modelSeed + 103,
		RoundInterval: fedRoundPause,
		Trainer:       trainer,
		Registry:      s.reg, Model: s.w.model,
		// Publish every round, better or not: every round writes.
		AccuracyDrop: 1,
		Checkpoint:   ck, CheckpointEvery: 1,
		Logger: logger,
	})
	return err
}

// timedTrainer wraps the client trainer behind the federated.ClientTrainer
// seam, recording one span per client, tagged with its round.
type timedTrainer struct {
	inner federated.Trainer
	rec   *recorder
}

func (t *timedTrainer) TrainClient(shard *data.ClientShard, global []*tensor.Matrix, seed int64) (federated.ClientResult, error) {
	return t.TrainRoundClient(-1, -1, shard, global, seed)
}

func (t *timedTrainer) TrainRoundClient(round, k int, shard *data.ClientShard, global []*tensor.Matrix, seed int64) (federated.ClientResult, error) {
	start := time.Now()
	res, err := t.inner.TrainClient(shard, global, seed)
	t.rec.add("fed.client_train", 0, int64(round), start, time.Now())
	return res, err
}

// timedCheckpoints wraps the fedserve.CheckpointStore seam.
type timedCheckpoints struct {
	inner fedserve.CheckpointStore
	rec   *recorder
}

func (c *timedCheckpoints) SaveCheckpoint(key string, payload []byte) error {
	start := time.Now()
	err := c.inner.SaveCheckpoint(key, payload)
	c.rec.add("store.save_checkpoint", 0, 0, start, time.Now())
	return err
}

func (c *timedCheckpoints) LoadCheckpoint(key string) ([]byte, bool, error) {
	return c.inner.LoadCheckpoint(key)
}

// roundSpans derives one fedserve.round span per round from the client
// spans (first client start to last client end), parents each client and
// each store write to its round, and returns the round durations and the
// gaps between a round's last client end and the next round's first client
// start (merge, eval, publish and checkpoint), in ms.
func roundSpans(rec *recorder) (rounds, between []float64) {
	type bounds struct {
		start, end float64
		clients    []int64
	}
	byRound := map[int64]*bounds{}
	for _, s := range rec.named("fed.client_train") {
		b := byRound[s.Req]
		if b == nil {
			b = &bounds{start: s.Start, end: s.End}
			byRound[s.Req] = b
		}
		b.start = min(b.start, s.Start)
		b.end = max(b.end, s.End)
		b.clients = append(b.clients, s.ID)
	}
	ids := make([]int64, 0, len(byRound))
	for r := range byRound {
		ids = append(ids, r)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	parents := map[int64]int64{}
	type roundSpan struct {
		id         int64
		start, end float64
	}
	var spans []roundSpan
	for i, r := range ids {
		b := byRound[r]
		id := rec.add("fedserve.round", 0, r, rec.t0.Add(usDur(b.start)), rec.t0.Add(usDur(b.end)))
		for _, c := range b.clients {
			parents[c] = id
		}
		spans = append(spans, roundSpan{id, b.start, b.end})
		rounds = append(rounds, (b.end-b.start)/1e3)
		if i > 0 && ids[i-1] == r-1 {
			between = append(between, (b.start-byRound[r-1].end)/1e3)
		}
	}
	// A store write belongs to the last round whose clients finished before it.
	for _, name := range []string{"store.append_publish", "store.save_checkpoint"} {
		for _, s := range rec.named(name) {
			i := sort.Search(len(spans), func(i int) bool { return spans[i].end > s.Start }) - 1
			if i >= 0 {
				parents[s.ID] = spans[i].id
			}
		}
	}
	rec.reparent(parents)
	return rounds, between
}

func usDur(us float64) time.Duration { return time.Duration(us * 1e3) }
