package main

// One repetition of a serving workload: a fresh in-process cluster
// behind the handler ccserved mounts, on a real loopback listener,
// driven through cc/client over HTTP.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/paper-repro/ccbm/cc/bench"
	"github.com/paper-repro/ccbm/cc/client"
	"github.com/paper-repro/ccbm/cc/cluster"
)

// Load sizing, fixed for every serving workload. The reference box has
// two cores shared by client and server, so two workers saturate it;
// two sessions also stay under the monitor's MaxWindowSessions (3), so
// no sampled window is capped.
const (
	workers  = 2 // = sessions = connections
	shards   = 2
	replicas = 3
	objects  = 16

	warmUp = 500 * time.Millisecond // discarded, on the fresh cluster

	// write.batch: client batching and the futures each worker keeps in
	// flight.
	batchOps      = 64
	batchDelay    = 500 * time.Microsecond
	pipelineDepth = 32

	convergeLimit = 2 * time.Second

	// minAchieved is the validity floor of an open-loop repetition's
	// achieved/offered ratio. The count of ~4500 Poisson arrivals in 3 s
	// varies by 1.5% (one sigma) between schedules, so the floor sits far
	// below that noise; a service that falls behind stretches the run and
	// lands below it.
	minAchieved = 0.90
)

// stack is one cluster with its listener and client.
type stack struct {
	cl     *cluster.Cluster
	srv    *http.Server
	served chan error
	cli    *client.Client
	once   sync.Once
}

// newStack builds the cluster, serves it, and connects a client. A
// non-nil tracer wraps the handler, the HTTP round tripper and the
// client transport with their span recorders. loopback skips the
// listener and connects the client in process (a ladder rung).
func newStack(w workload, t *tracer, loopback bool) (*stack, error) {
	cl, err := cluster.New(cluster.Config{
		Shards: shards, Replicas: replicas,
		Criterion: w.Criterion, Replication: w.Replication,
	})
	if err != nil {
		return nil, err
	}
	s := &stack{cl: cl}
	var tr client.Transport
	if loopback {
		tr = client.NewLoopback(cl)
	} else {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cl.Close()
			return nil, err
		}
		h := cluster.NewHTTPHandler(cl)
		var httpOpts []client.HTTPOption
		if t != nil {
			h = t.handler(h)
			// The client's own default transport, wrapped.
			base := &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64}
			httpOpts = append(httpOpts, client.WithHTTPClient(&http.Client{Transport: tracedRoundTripper{next: base, t: t}}))
		}
		s.srv = &http.Server{Handler: h}
		s.served = make(chan error, 1)
		go func() { s.served <- s.srv.Serve(ln) }()
		tr = client.NewHTTPTransport("http://"+ln.Addr().String(), httpOpts...)
	}
	if t != nil {
		tr = tracedTransport{Transport: tr, t: t}
	}
	var opts []client.Option
	if w.Batched {
		opts = append(opts, client.WithBatching(batchOps, batchDelay))
	}
	s.cli, err = client.New(tr, opts...)
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close stops the client, the server and the cluster, and waits for
// the serve goroutine. Closing the cluster submits the monitor's open
// windows and waits for their verdicts.
func (s *stack) close() {
	s.once.Do(func() {
		if s.cli != nil {
			s.cli.Close()
		}
		if s.srv != nil {
			s.srv.Close()
			<-s.served
		}
		s.cl.Close()
	})
}

// newScenario instantiates the workload's cc/bench scenario at the
// benchmark's fixed sizing.
func newScenario(w workload, seed int64) (bench.Workload, error) {
	return bench.NewScenario(w.Scenario, objects, bench.RunConfig{Workers: workers, Seed: seed})
}

// session0 is the operation stream of the scenario's first session, the
// one the ladder replays.
func session0(sc bench.Workload, seed int64) bench.Worker {
	return sc.NewWorker(0, rand.New(rand.NewSource(seed)))
}

// load is what one measured run yields, whichever driver ran it.
type load struct {
	ops, errs int64
	elapsed   time.Duration
	intended  *bench.Histogram // latency on the intended-arrival clock
	service   *bench.Histogram // latency on the stopwatch
}

// drive runs the workload's traffic for d: bench.Run (closed loop, or
// open loop when the workload has a rate), or the pipelined driver for
// the batched workload.
func drive(ctx context.Context, w workload, sc bench.Workload, s *stack, t *tracer, seed int64, d time.Duration) (load, error) {
	cfg := bench.RunConfig{Workers: workers, Rate: w.Rate, Duration: d, Seed: seed}
	if w.Batched {
		return runPipelined(ctx, sc, s.cli, t, cfg), nil
	}
	var exec bench.Executor = bench.NewClientExecutor(s.cli, 0)
	if t != nil {
		exec = tracedExecutor{Executor: exec, t: t}
	}
	rep, err := bench.Run(ctx, sc, exec, cfg)
	if err != nil {
		return load{}, err
	}
	return load{ops: rep.Ops, errs: rep.Errors, elapsed: rep.Elapsed, intended: rep.Intended, service: rep.Service}, nil
}

// runPipelined is the closed-loop driver of write.batch: each worker
// keeps pipelineDepth asynchronous invocations in flight on its
// session and, when the pipeline is full, waits for the oldest. An
// operation's latency runs from its issue to the return of its Get.
// Workers seed their op streams as bench.Run does.
func runPipelined(ctx context.Context, sc bench.Workload, cli *client.Client, t *tracer, cfg bench.RunConfig) load {
	type pending struct {
		fut   *client.Future
		t0    time.Time
		id    uint64
		start int64
	}
	out := load{intended: bench.NewHistogram()}
	out.service = out.intended // closed loop: one clock
	var mu sync.Mutex
	var wg sync.WaitGroup
	begin := time.Now()
	deadline := begin.Add(cfg.Duration)
	for i := 0; i < cfg.Workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			sess := cli.Session(id)
			gen := sc.NewWorker(id, rand.New(rand.NewSource(cfg.Seed+int64(id))))
			var ops, errs int64
			await := func(p pending) {
				_, err := p.fut.Get(ctx)
				if t != nil {
					t.endOp(p.id, p.start)
				}
				out.intended.RecordDuration(time.Since(p.t0))
				ops++
				if err != nil {
					errs++
				}
			}
			inflight := make([]pending, 0, pipelineDepth)
			for step := 0; time.Now().Before(deadline) && ctx.Err() == nil; step++ {
				if len(inflight) == pipelineDepth {
					await(inflight[0])
					inflight = append(inflight[:0], inflight[1:]...)
				}
				op := gen.NextOp(step)
				p := pending{t0: time.Now()}
				if t != nil {
					p.id, p.start = t.beginOp(id)
				}
				p.fut = sess.InvokeAsync(op.Object, op.Input)
				inflight = append(inflight, p)
			}
			for _, p := range inflight {
				await(p)
			}
			mu.Lock()
			out.ops += ops
			out.errs += errs
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	out.elapsed = time.Since(begin)
	return out
}

// repResult is one repetition's numbers: metric name → value, plus
// the failed correctness checks.
type repResult struct {
	values    map[string]float64
	attempted int64
	failed    int64
	problems  []string
}

func (r *repResult) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// setLatency reports the median and the tail percentiles the sample
// supports: a repetition has thousands of operations, so p99 has well
// over ten samples beyond it and p99.9 a handful (printed, not gated).
func (r *repResult) setLatency(h *bench.Histogram) {
	for name, q := range map[string]float64{"p50_us": 0.50, "p99_us": 0.99, "p999_us": 0.999} {
		r.values[name] = float64(h.Quantile(q)) / 1e3
	}
}

// servingRep runs one repetition on a fresh cluster: set-up (cluster,
// listener, client, object creation, a warm-up of length warm), the
// convergence wait, and the correctness checks. It returns the closed
// cluster for its counters; with a tracer, the spans of the measured
// run are left in it.
func servingRep(ctx context.Context, w workload, seed int64, warm, d time.Duration, t *tracer) (repResult, *cluster.Cluster, error) {
	res := repResult{values: make(map[string]float64)}
	setupStart := time.Now()
	s, err := newStack(w, t, false)
	if err != nil {
		return res, nil, err
	}
	defer s.close()
	sc, err := newScenario(w, seed)
	if err != nil {
		return res, nil, err
	}
	if err := bench.NewClientExecutor(s.cli, 0).Setup(ctx, sc.Objects()); err != nil {
		return res, nil, fmt.Errorf("create objects: %w", err)
	}
	res.values["construct_ms"] = float64(time.Since(setupStart)) / float64(time.Millisecond)
	// The warm-up draws from its own streams (see repSeed).
	if _, err := drive(ctx, w, sc, s, t, seed+5, warm); err != nil {
		return res, nil, fmt.Errorf("warm-up: %w", err)
	}
	if t != nil {
		t.reset()
	}
	res.values["setup_s"] = time.Since(setupStart).Seconds()

	ld, err := drive(ctx, w, sc, s, t, seed, d)
	if err != nil {
		return res, nil, err
	}
	// Polled by hand: Cluster.AwaitConvergence would first kick the
	// repair path, and the wait measured here is the backend's own.
	convergeStart := time.Now()
	for !s.cl.Converged() {
		if time.Since(convergeStart) > convergeLimit {
			res.problemf("replicas not converged %v after the last operation: fingerprints %v", convergeLimit, s.cl.Fingerprints())
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	res.values["converge_ms"] = float64(time.Since(convergeStart)) / float64(time.Millisecond)

	res.attempted, res.failed = ld.ops, ld.errs
	if ld.ops == 0 {
		return res, nil, errors.New("no operation completed")
	}
	res.values["ops_per_s"] = float64(ld.ops) / ld.elapsed.Seconds()
	res.values["error_share"] = float64(ld.errs) / float64(ld.ops)
	res.setLatency(ld.intended)
	res.values["retries"] = float64(s.cli.Metrics().Retries)
	if ld.errs > 0 {
		res.problemf("%d of %d operations failed", ld.errs, ld.ops)
	}
	if w.Rate > 0 {
		ratio := res.values["ops_per_s"] / w.Rate
		res.values["achieved_ratio"] = ratio
		if ratio < minAchieved {
			res.problemf("open loop fell behind: achieved/offered = %.3f < %.2f", ratio, minAchieved)
		}
		// Both clocks record every operation, so the difference of their
		// means is exactly the mean time an operation started after it
		// was due: how late the generator ran.
		res.values["late_mean_us"] = (ld.intended.Mean() - ld.service.Mean()) / 1e3
	}

	// The monitor's checks need the verdicts of the windows that closing
	// the cluster submits.
	s.close()
	sum := s.cl.Monitor().Summary()
	if len(sum.Violations) > 0 {
		res.problemf("monitor: %d violations, first %+v", len(sum.Violations), sum.Violations[0])
	}
	if sum.Exhausted > 0 || sum.Errors > 0 || sum.CappedOps > 0 || sum.WindowsDropped > 0 {
		res.problemf("monitor: exhausted=%d errors=%d capped_ops=%d dropped=%d, all must be 0",
			sum.Exhausted, sum.Errors, sum.CappedOps, sum.WindowsDropped)
	}
	if sum.Verdicts < 1 {
		res.problemf("monitor: no verdict")
	}
	return res, s.cl, nil
}
