package bench

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"github.com/paper-repro/ccbm/internal/benchrec"
)

// Arrival names an open-loop arrival process.
type Arrival string

const (
	// ArrivalPoisson draws exponential inter-arrival gaps (memoryless
	// open-loop traffic, the usual model of independent clients).
	ArrivalPoisson Arrival = "poisson"
	// ArrivalFixed spaces arrivals deterministically at 1/rate.
	ArrivalFixed Arrival = "fixed"
)

// Executor runs generated operations against a system under test.
// Setup is called once per Run with the workload's initial population
// (creates must be idempotent: ramps re-run Setup every step). Do
// executes one op for one worker; workers call Do concurrently, each
// with its own worker id, and expect read-your-writes per worker (the
// executor should map workers to sessions one-to-one).
type Executor interface {
	Setup(ctx context.Context, objs []ObjectSpec) error
	Do(ctx context.Context, worker int, op Op) error
}

// AsyncExecutor is an Executor that can also issue an op without
// waiting for it: DoAsync starts the op on the worker's session and
// returns the wait that resolves it. Run needs one for Inflight > 1.
type AsyncExecutor interface {
	Executor
	DoAsync(worker int, op Op) func(context.Context) error
}

// RunConfig parameterizes one measured load run.
type RunConfig struct {
	// Workers is the number of concurrent generator routines (one
	// session each). <= 0 means 1.
	Workers int
	// Rate is the total offered rate in ops/s across all workers. 0
	// runs the classic closed loop: each worker issues its next op as
	// soon as the previous returns, and the intended clock degenerates
	// to the stopwatch.
	Rate float64
	// Arrival picks the open-loop arrival process (default poisson).
	Arrival Arrival
	// Duration bounds the run (default 1s). Arrivals stop at the
	// deadline; ops already due still execute, so a backlogged run ends
	// shortly after.
	Duration time.Duration
	// Seed drives the workload and the arrival clocks.
	Seed int64
	// Inflight > 1 pipelines the closed loop: each worker keeps up to
	// Inflight ops outstanding through the executor's DoAsync and, when
	// the pipeline is full, waits for the oldest. It needs Rate 0 and
	// an AsyncExecutor. <= 1 issues one op at a time.
	Inflight int
}

func (c *RunConfig) fill() {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Arrival == "" {
		c.Arrival = ArrivalPoisson
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
}

// Report is the measured outcome of one Run.
type Report struct {
	Scenario string
	Mode     string // "open" or "closed"
	Arrival  Arrival
	Workers  int
	Offered  float64 // configured rate (0 for closed loop)
	Achieved float64 // measured ops/s
	Elapsed  time.Duration
	Ops      int64
	Errors   int64
	// Intended measures from each op's intended arrival time — the
	// coordinated-omission-safe clock that charges queueing delay to
	// the service. Service measures the naive stopwatch (invocation to
	// return). In a closed loop the two coincide.
	Intended *Histogram
	Service  *Histogram
	// Mix is the realized op-kind mix, as fractions of Ops.
	Mix map[string]float64
}

// Result renders the report as the BENCH_*.json record shape.
func (r *Report) Result() LoadResult {
	res := LoadResult{
		Scenario:     r.Scenario,
		Mode:         r.Mode,
		Arrival:      string(r.Arrival),
		Workers:      r.Workers,
		OfferedRate:  r.Offered,
		AchievedRate: r.Achieved,
		Ops:          r.Ops,
		Errors:       r.Errors,
		Mix:          r.Mix,
	}
	if r.Intended != nil && r.Intended.Count() > 0 {
		p := r.Intended.Percentiles()
		res.Intended = &p
	}
	if r.Service != nil && r.Service.Count() > 0 {
		p := r.Service.Percentiles()
		res.Service = &p
	}
	if r.Mode == "closed" {
		res.Arrival = ""
	}
	return res
}

// Run drives one measured load run of an Init'ed workload against an
// executor. With cfg.Rate > 0 it is open loop: each worker owns a
// slice of the target rate and an arrival clock; an op's latency is
// measured from its *intended* arrival, so when the service stalls,
// the ops that should have started during the stall are charged their
// queueing delay instead of being silently omitted. With cfg.Rate ==
// 0 it is the classic closed loop, pipelined when cfg.Inflight > 1.
// Errors from Do are counted, not fatal; ctx cancellation ends the run
// early.
func Run(ctx context.Context, w Workload, exec Executor, cfg RunConfig) (*Report, error) {
	cfg.fill()
	var async AsyncExecutor
	if cfg.Inflight > 1 {
		if cfg.Rate > 0 {
			return nil, fmt.Errorf("bench: Inflight %d pipelines a closed loop; Rate must be 0", cfg.Inflight)
		}
		var ok bool
		if async, ok = exec.(AsyncExecutor); !ok {
			return nil, fmt.Errorf("bench: Inflight %d needs an AsyncExecutor", cfg.Inflight)
		}
	}
	if err := exec.Setup(ctx, w.Objects()); err != nil {
		return nil, fmt.Errorf("bench: setup: %w", err)
	}

	rep := &Report{
		Scenario: w.Name(),
		Mode:     "open",
		Arrival:  cfg.Arrival,
		Workers:  cfg.Workers,
		Offered:  cfg.Rate,
		Intended: NewHistogram(),
		Service:  NewHistogram(),
	}
	if cfg.Rate <= 0 {
		rep.Mode, rep.Arrival = "closed", ""
	}

	tallies := make([]workerTally, cfg.Workers)
	perWorker := cfg.Rate / float64(cfg.Workers)

	start := time.Now()
	deadline := start.Add(cfg.Duration)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Two independent streams so arrival-clock draws never
			// perturb the workload's op draws.
			opRNG := rand.New(rand.NewSource(cfg.Seed + int64(id)))
			arrRNG := rand.New(rand.NewSource(cfg.Seed*7919 + int64(id) + 1))
			worker := w.NewWorker(id, opRNG)
			t := &tallies[id]
			t.mix = make(map[string]int64)
			if async != nil {
				pipeline(ctx, async, worker, id, cfg.Inflight, deadline, rep, t)
				return
			}

			// Stagger workers across one period so the aggregate
			// arrival stream is smooth from the start.
			intended := start
			if cfg.Rate > 0 {
				intended = start.Add(time.Duration(float64(id) / cfg.Rate * float64(time.Second)))
			}
			for step := 0; ; step++ {
				if ctx.Err() != nil {
					return
				}
				if cfg.Rate > 0 {
					if intended.After(deadline) {
						return
					}
					// Open loop: wait for the intended arrival. Never
					// skip a late arrival — executing it immediately
					// and charging the delay is the whole point.
					if d := time.Until(intended); d > 0 {
						select {
						case <-time.After(d):
						case <-ctx.Done():
							return
						}
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				op := worker.NextOp(step)
				t0 := time.Now()
				err := exec.Do(ctx, id, op)
				done := time.Now()
				if err != nil {
					if ctx.Err() != nil {
						return
					}
					t.errs++
				}
				t.ops++
				t.mix[op.Kind]++
				rep.Service.RecordDuration(done.Sub(t0))
				if cfg.Rate > 0 {
					rep.Intended.RecordDuration(done.Sub(intended))
					intended = intended.Add(arrivalGap(cfg.Arrival, perWorker, arrRNG))
				} else {
					rep.Intended.RecordDuration(done.Sub(t0))
				}
			}
		}(i)
	}
	wg.Wait()

	rep.Elapsed = time.Since(start)
	mix := make(map[string]int64)
	for i := range tallies {
		rep.Ops += tallies[i].ops
		rep.Errors += tallies[i].errs
		for k, n := range tallies[i].mix {
			mix[k] += n
		}
	}
	if rep.Elapsed > 0 {
		rep.Achieved = float64(rep.Ops) / rep.Elapsed.Seconds()
	}
	if rep.Ops > 0 {
		rep.Mix = make(map[string]float64, len(mix))
		for k, n := range mix {
			rep.Mix[k] = float64(n) / float64(rep.Ops)
		}
	}
	return rep, ctx.Err()
}

// workerTally is one Run worker's count of ops, errors and op kinds.
type workerTally struct {
	ops, errs int64
	mix       map[string]int64
}

// pipeline is a Run worker's closed loop for Inflight > 1: it keeps up
// to inflight ops outstanding and, when the pipeline is full, waits for
// the oldest. An op's latency runs from its issue to its wait's return,
// and errors count in Ops.
func pipeline(ctx context.Context, exec AsyncExecutor, worker Worker, id, inflight int, deadline time.Time, rep *Report, t *workerTally) {
	type pending struct {
		wait func(context.Context) error
		t0   time.Time
		kind string
	}
	var window []pending
	resolve := func(p pending) {
		err := p.wait(ctx)
		d := time.Since(p.t0)
		rep.Service.RecordDuration(d)
		rep.Intended.RecordDuration(d)
		t.ops++
		t.mix[p.kind]++
		if err != nil {
			t.errs++
		}
	}
	for step := 0; time.Now().Before(deadline) && ctx.Err() == nil; step++ {
		if len(window) == inflight {
			resolve(window[0])
			window = window[1:]
		}
		op := worker.NextOp(step)
		t0 := time.Now()
		window = append(window, pending{wait: exec.DoAsync(id, op), t0: t0, kind: op.Kind})
	}
	for _, p := range window {
		resolve(p)
	}
}

// arrivalGap draws one inter-arrival gap for a single worker's clock.
func arrivalGap(a Arrival, rate float64, rng *rand.Rand) time.Duration {
	period := float64(time.Second) / rate
	if a == ArrivalFixed {
		return time.Duration(period)
	}
	// Exponential gap, clamped so one extreme draw cannot park a
	// worker past any plausible run.
	g := rng.ExpFloat64() * period
	if max := 50 * period; g > max {
		g = max
	}
	return time.Duration(math.Max(g, 0))
}

// NewScenario looks up, configures and Inits a named scenario in one
// call, sizing the workload's Config from the run's.
func NewScenario(name string, objects int, cfg RunConfig) (Workload, error) {
	cfg.fill()
	w, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	if err := w.Init(Config{Objects: objects, Workers: cfg.Workers, Seed: cfg.Seed}); err != nil {
		return nil, fmt.Errorf("bench: init %s: %w", name, err)
	}
	return w, nil
}

// AppendRecord appends a labelled, host-stamped entry to a BENCH_*.json
// trajectory file (the internal/benchrec format).
func AppendRecord(path, label string, results any) (int, error) {
	return benchrec.Append(path, benchrec.NewHost(label, results))
}

// LoadResult is the structured record of a load run (the shape stored
// in BENCH_runtime.json); Report.Result and RampResult.Result produce
// it.
type LoadResult = benchrec.LoadResult
