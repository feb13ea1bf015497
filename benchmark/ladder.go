package main

// The layer ladder. Below the HTTP handler nothing can be wrapped from
// outside the program, so the same seeded op stream is replayed, closed
// loop on one goroutine, at successively lower public entry points; a
// layer's self time is its rung minus the rung below.

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/paper-repro/ccbm/cc/bench"
	"github.com/paper-repro/ccbm/cc/cluster/wire"
	"github.com/paper-repro/ccbm/internal/broadcast"
	"github.com/paper-repro/ccbm/internal/core"
	bnet "github.com/paper-repro/ccbm/internal/net"
	"github.com/paper-repro/ccbm/internal/vclock"
)

// The station batching the cluster configures by default
// (cluster.Config.BatchOps and BatchWait), for the bare station group.
const (
	stationBatchOps  = 32
	stationBatchWait = 200 * time.Microsecond
)

// rung is the mean time per operation at one entry point, in
// microseconds, overall and by operation kind.
type rung struct {
	MeanUS, UpdateUS, QueryUS float64
	Ops, Updates              int
}

// ladder holds the rungs of one workload, top down.
type ladder struct {
	HTTP, Loopback, Cluster, Station rung
	// BroadcastUS is one Broadcast call, which delivers locally before
	// it returns: the part of the broadcast layer an update waits for.
	// DeliverAllUS runs from the call until every replica has delivered.
	BroadcastUS, DeliverAllUS float64
	// SendToHandlerUS runs from net.Live.Send to the peer's handler.
	SendToHandlerUS float64
}

// timeRung replays the stream through do for d.
func timeRung(d time.Duration, next func(step int) bench.Op, do func(bench.Op) error) (rung, error) {
	var r rung
	var total, upd time.Duration
	deadline := time.Now().Add(d)
	for step := 0; time.Now().Before(deadline); step++ {
		op := next(step)
		t0 := time.Now()
		if err := do(op); err != nil {
			return r, fmt.Errorf("%s on %s: %w", op.Input, op.Object, err)
		}
		dt := time.Since(t0)
		total += dt
		r.Ops++
		if op.Update {
			upd += dt
			r.Updates++
		}
	}
	us := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(n) / 1e3
	}
	r.MeanUS, r.UpdateUS, r.QueryUS = us(total, r.Ops), us(upd, r.Updates), us(total-upd, r.Ops-r.Updates)
	return r, nil
}

// runLadder measures every rung for d each. Each rung replays session
// 0's stream of the workload's scenario from the same seed.
func runLadder(ctx context.Context, w workload, seed int64, d time.Duration) (ladder, error) {
	var ld ladder
	scenario := func() (bench.Workload, func(int) bench.Op, error) {
		sc, err := newScenario(w, seed)
		if err != nil {
			return nil, nil, err
		}
		return sc, session0(sc, seed).NextOp, nil
	}

	// cc/client over HTTP, then over the in-process loopback, then the
	// cluster's own session.
	unbatched := w
	unbatched.Batched = false
	for _, top := range []struct {
		r        *rung
		loopback bool
		direct   bool
	}{{&ld.HTTP, false, false}, {&ld.Loopback, true, false}, {&ld.Cluster, true, true}} {
		sc, next, err := scenario()
		if err != nil {
			return ld, err
		}
		s, err := newStack(unbatched, nil, top.loopback)
		if err != nil {
			return ld, err
		}
		if err = bench.NewClientExecutor(s.cli, 0).Setup(ctx, sc.Objects()); err == nil {
			do := func(op bench.Op) error {
				_, err := s.cli.Session(0).Invoke(ctx, op.Object, op.Input)
				return err
			}
			if top.direct {
				sess := s.cl.Session(0)
				do = func(op bench.Op) error {
					_, err := sess.InvokeTarget(op.Object, op.Input, wire.ReadAffinity)
					return err
				}
			}
			*top.r, err = timeRung(d, next, do)
		}
		s.close()
		if err != nil {
			return ld, fmt.Errorf("ladder: %w", err)
		}
	}

	mode, err := core.ParseMode(w.Criterion)
	if err != nil {
		return ld, err
	}
	repl, err := core.ParseReplication(w.Replication)
	if err != nil {
		return ld, err
	}

	// core.Station.Invoke on a bare replica group.
	{
		sc, next, err := scenario()
		if err != nil {
			return ld, err
		}
		tr := bnet.NewLive(replicas)
		birth := time.Now().UnixNano()
		sts := make([]*core.Station, replicas)
		for i := range sts {
			sts[i] = core.NewStation(tr, i, mode, core.StationConfig{
				BatchOps: stationBatchOps, BatchWait: stationBatchWait, Replication: repl, Birth: birth,
			})
		}
		for _, o := range sc.Objects() {
			for _, st := range sts {
				if err == nil {
					err = st.EnsureObject(o.Name, o.ADT)
				}
			}
		}
		if err == nil {
			ld.Station, err = timeRung(d, next, func(op bench.Op) error {
				_, err := sts[0].Invoke(op.Object, op.Input)
				return err
			})
		}
		for _, st := range sts {
			st.Close()
		}
		tr.Close()
		if err != nil {
			return ld, fmt.Errorf("ladder: station: %w", err)
		}
	}

	// The broadcast layer of the workload's backend: one Broadcast call,
	// and the wait until all replicas have delivered it.
	{
		tr := bnet.NewLive(replicas)
		var delivered atomic.Int64
		all := make(chan struct{}, 1)
		deliver := func(int, vclock.VC, any) {
			if delivered.Add(1)%replicas == 0 {
				all <- struct{}{}
			}
		}
		var bc broadcast.Broadcaster // process 0's layer, built last
		var stop []func()
		for i := replicas - 1; i >= 0; i-- {
			if repl == core.ReplAntiEntropy {
				ae := broadcast.NewAntiEntropy(tr, i, broadcast.AEConfig{Ordering: broadcast.AECausal}, deliver)
				stop = append(stop, ae.Stop)
				bc = ae
			} else {
				bc = broadcast.NewCausalVC(tr, i, deliver)
			}
		}
		var call, whole time.Duration
		n := 0
		for deadline := time.Now().Add(d); time.Now().Before(deadline); n++ {
			t0 := time.Now()
			bc.Broadcast(n)
			call += time.Since(t0)
			<-all
			whole += time.Since(t0)
		}
		for _, f := range stop {
			f()
		}
		tr.Close()
		ld.BroadcastUS = float64(call) / float64(n) / 1e3
		ld.DeliverAllUS = float64(whole) / float64(n) / 1e3
	}

	// net.Live: Send to the peer's handler.
	{
		tr := bnet.NewLive(replicas)
		arrived := make(chan time.Time, 1)
		for i := 0; i < replicas; i++ {
			tr.Register(i, func(int, any) { arrived <- time.Now() })
		}
		var total time.Duration
		n := 0
		for deadline := time.Now().Add(d); time.Now().Before(deadline); n++ {
			t0 := time.Now()
			tr.Send(0, 1, n)
			total += (<-arrived).Sub(t0)
		}
		tr.Close()
		ld.SendToHandlerUS = float64(total) / float64(n) / 1e3
	}
	return ld, nil
}
