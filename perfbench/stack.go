package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"mobiledl/internal/cluster"
	"mobiledl/internal/core"
	"mobiledl/internal/federated"
	"mobiledl/internal/fedserve"
	"mobiledl/internal/mobile"
	"mobiledl/internal/serve"
	"mobiledl/internal/store"
)

// The serving policy of a default mobiledlserve.
const (
	maxBatch       = 32
	batchWindow    = 2 * time.Millisecond
	requestBudget  = time.Second
	gossipInterval = time.Second
	// modelSeed fixes served weights and the federated task: the workload
	// seed varies only the traffic.
	modelSeed = 1
)

// node is one HTTP listener on loopback.
type node struct {
	url  string // base URL, no trailing slash
	hs   *http.Server
	done chan struct{}
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

func serveOn(ln net.Listener, h http.Handler) *node {
	n := &node{
		url:  "http://" + ln.Addr().String(),
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second, IdleTimeout: 60 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(ln)
	}()
	return n
}

func (n *node) close() {
	if n == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = n.hs.Shutdown(ctx)
	<-n.done
}

// stack is the system under test, built the way mobiledlserve builds it.
type stack struct {
	w       workload
	factory federated.ModelFactory
	reg     *serve.Registry
	srv     *serve.Server
	rt      *serve.Runtime
	direct  *node // srv on its own listener
	version int   // installed version (fixed-model workloads)

	// Cluster topology: the owner serves srv behind the cluster layer, the
	// router holds no model and forwards.
	owner, router     *node
	ownerCl, routerCl *cluster.Node
	routerSrv         *serve.Server

	// Training (train_serve).
	coord *fedserve.Coordinator
	st    *store.Store
	pubs  *publishLog

	target string // predict URL the workload's traffic goes to
}

func benchLogger() *slog.Logger {
	// Warnings and errors only: per-publish info lines would make stderr
	// writes part of what is measured.
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
}

// buildStack builds the workload's stack. withCluster adds the owner and
// router nodes even when the workload's traffic does not use them (the
// traced run's ladder needs them). dir is where a train_serve store lives.
func buildStack(w workload, withCluster bool, rec *recorder, dir string) (s *stack, err error) {
	s = &stack{w: w}
	defer func() {
		if err != nil {
			s.close()
			s = nil
		}
	}()
	logger := benchLogger()
	model, factory, err := core.NewMLP(core.MLPSpec{In: inputDim, Hidden: w.hidden, Classes: classes, Seed: modelSeed})
	if err != nil {
		return s, err
	}
	s.factory = factory
	s.reg = serve.NewRegistry()
	if w.train {
		if err := s.buildTraining(rec, dir, logger); err != nil {
			return s, err
		}
	} else {
		b, err := serve.NewDenseBackend(model)
		if err != nil {
			return s, err
		}
		if s.version, err = s.reg.Install(w.model, b); err != nil {
			return s, err
		}
	}
	s.rt, err = serve.NewRuntime(serve.RuntimeConfig{
		Registry: s.reg, Model: w.model,
		Batch: serve.BatcherConfig{MaxBatch: maxBatch, MaxDelay: batchWindow},
		Net:   mobile.WiFiNetwork(), Seed: modelSeed, Logger: logger,
	})
	if err != nil {
		return s, err
	}
	s.srv = serve.NewServerWith(s.reg, serve.ServerConfig{DefaultTimeout: requestBudget, Logger: logger})
	s.srv.Add(s.rt)
	ln, err := listen()
	if err != nil {
		return s, err
	}
	s.direct = serveOn(ln, s.srv.Handler())
	s.target = s.direct.url + "/v1/predict"
	if w.cluster || withCluster {
		if err := s.buildCluster(logger); err != nil {
			return s, err
		}
		if w.cluster {
			s.target = s.router.url + "/v1/predict"
		}
	}
	return s, nil
}

// buildCluster starts an owner node (srv behind the cluster layer) and a
// model-less router node, and waits until gossip routes the model to the
// owner.
func (s *stack) buildCluster(logger *slog.Logger) error {
	oln, err := listen()
	if err != nil {
		return err
	}
	rln, err := listen()
	if err != nil {
		oln.Close()
		return err
	}
	oaddr, raddr := oln.Addr().String(), rln.Addr().String()
	s.ownerCl, err = cluster.New(cluster.Config{
		NodeID: "owner", AdvertiseAddr: oaddr, Peers: []string{raddr},
		GossipInterval: gossipInterval, Inventory: s.reg.Inventory, Logger: logger,
	})
	if err != nil {
		oln.Close()
		rln.Close()
		return err
	}
	routerReg := serve.NewRegistry()
	s.routerCl, err = cluster.New(cluster.Config{
		NodeID: "router", AdvertiseAddr: raddr, Peers: []string{oaddr},
		GossipInterval: gossipInterval, Inventory: routerReg.Inventory, Logger: logger,
	})
	if err != nil {
		oln.Close()
		rln.Close()
		return err
	}
	s.routerSrv = serve.NewServerWith(routerReg, serve.ServerConfig{
		DefaultTimeout: requestBudget, Logger: logger, ClusterStatus: s.routerCl.Status,
	})
	s.routerSrv.AddMetricsSource(s.routerCl.WriteMetrics)
	s.owner = serveOn(oln, s.ownerCl.Handler(s.srv.Handler()))
	s.router = serveOn(rln, s.routerCl.Handler(s.routerSrv.Handler()))
	s.ownerCl.Start()
	s.routerCl.Start()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if r := s.routerCl.State().Routes[s.w.model]; len(r) > 0 && r[0] == "owner" {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("cluster: router never learned the owner's model")
}

// close stops everything the stack started, in mobiledlserve's shutdown
// order: listeners, cluster gossip, training, runtimes and registry, store.
// The store's directory stays, so it can be reopened.
func (s *stack) close() error {
	s.router.close()
	s.owner.close()
	s.direct.close()
	if s.routerCl != nil {
		s.routerCl.Stop()
	}
	if s.ownerCl != nil {
		s.ownerCl.Stop()
	}
	if s.coord != nil {
		s.coord.Stop()
	}
	if s.routerSrv != nil {
		s.routerSrv.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	} else if s.reg != nil {
		_ = s.reg.Close()
	}
	if s.st != nil {
		if err := s.st.Close(); err != nil {
			return fmt.Errorf("close store: %w", err)
		}
	}
	return nil
}
