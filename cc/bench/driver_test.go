package bench

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stubWorkload is a minimal Workload for driver tests: one Register
// object, every op a read.
type stubWorkload struct{}

func (stubWorkload) Name() string      { return "stub" }
func (stubWorkload) Doc() string       { return "driver-test stub" }
func (stubWorkload) Init(Config) error { return nil }
func (stubWorkload) Profile() Profile {
	return Profile{ADTs: []string{"Register"}, Dist: KeyUniform,
		Mix: []MixEntry{{Kind: "read", Fraction: 1}}}
}
func (stubWorkload) Objects() []ObjectSpec {
	return []ObjectSpec{{Name: "o", ADT: "Register"}}
}
func (stubWorkload) NewWorker(id int, rng *rand.Rand) Worker { return stubWorker{} }

type stubWorker struct{}

func (stubWorker) NextOp(step int) Op {
	return Op{Object: "o", ADT: "Register", Input: newInput("r"), Kind: "read"}
}

// stallExecutor executes ops instantly except for one injected stall:
// call number stallAt (1-based) sleeps stallFor before returning.
type stallExecutor struct {
	calls    atomic.Int64
	setups   atomic.Int64
	stallAt  int64
	stallFor time.Duration
}

func (e *stallExecutor) Setup(ctx context.Context, objs []ObjectSpec) error {
	e.setups.Add(1)
	return nil
}

func (e *stallExecutor) Do(ctx context.Context, worker int, op Op) error {
	if n := e.calls.Add(1); n == e.stallAt {
		time.Sleep(e.stallFor)
	}
	return nil
}

// TestRunCoordinatedOmission is the point of the open-loop driver: a
// single 50ms service stall must show up in the intended-clock p99
// (the arrivals due during the stall are charged their queueing
// delay) while the naive stopwatch p99 stays low (only the one
// stalled call was slow by that clock). A closed-loop/naive harness
// reports the second number and hides the outage — coordinated
// omission.
func TestRunCoordinatedOmission(t *testing.T) {
	exec := &stallExecutor{stallAt: 400, stallFor: 50 * time.Millisecond}
	rep, err := Run(context.Background(), stubWorkload{}, exec, RunConfig{
		Workers:  1,
		Rate:     1250, // 0.8ms period: the stall swallows ~62 arrivals
		Arrival:  ArrivalFixed,
		Duration: 600 * time.Millisecond,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "open" || rep.Arrival != ArrivalFixed {
		t.Fatalf("mode/arrival = %s/%s, want open/fixed", rep.Mode, rep.Arrival)
	}
	if rep.Ops < 500 {
		t.Fatalf("only %d ops in 600ms at 1250/s — driver stalled?", rep.Ops)
	}
	intendedP99 := time.Duration(rep.Intended.Quantile(0.99))
	serviceP99 := time.Duration(rep.Service.Quantile(0.99))
	t.Logf("ops=%d intended p99=%v service p99=%v", rep.Ops, intendedP99, serviceP99)
	// Pin both sides: the stall is visible on the intended clock...
	if intendedP99 < 25*time.Millisecond {
		t.Errorf("intended p99 = %v, want >= 25ms: the open-loop clock lost the stall", intendedP99)
	}
	// ...and (mostly) invisible on the stopwatch, which is exactly why
	// the stopwatch alone must not be trusted.
	if serviceP99 >= 25*time.Millisecond {
		t.Errorf("service p99 = %v, want < 25ms: stopwatch should hide the stall", serviceP99)
	}
	if max := time.Duration(rep.Service.Max()); max < 50*time.Millisecond {
		t.Errorf("service max = %v, want >= 50ms (the one stalled call)", max)
	}
}

// TestRunClosedLoopClocksCoincide: with Rate == 0 the intended clock
// degenerates to the stopwatch — same counts, same quantiles.
func TestRunClosedLoopClocksCoincide(t *testing.T) {
	exec := &stallExecutor{stallAt: -1}
	rep, err := Run(context.Background(), stubWorkload{}, exec, RunConfig{
		Workers:  2,
		Duration: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "closed" || rep.Arrival != "" {
		t.Fatalf("mode/arrival = %s/%q, want closed/empty", rep.Mode, rep.Arrival)
	}
	if rep.Ops == 0 || rep.Intended.Count() != rep.Ops || rep.Service.Count() != rep.Ops {
		t.Fatalf("counts: ops=%d intended=%d service=%d", rep.Ops, rep.Intended.Count(), rep.Service.Count())
	}
	for _, q := range []float64{0.5, 0.99} {
		if a, b := rep.Intended.Quantile(q), rep.Service.Quantile(q); a != b {
			t.Errorf("closed loop q%v: intended %d != service %d", q, a, b)
		}
	}
	if rep.Mix["read"] != 1 {
		t.Errorf("mix = %v, want all read", rep.Mix)
	}
}

type failExecutor struct{ setupErr error }

func (e *failExecutor) Setup(ctx context.Context, objs []ObjectSpec) error { return e.setupErr }
func (e *failExecutor) Do(ctx context.Context, worker int, op Op) error {
	return errors.New("boom")
}

// TestRunCountsErrors: Do errors are tallied, not fatal; Setup errors
// are fatal.
func TestRunCountsErrors(t *testing.T) {
	rep, err := Run(context.Background(), stubWorkload{}, &failExecutor{}, RunConfig{
		Duration: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops == 0 || rep.Errors != rep.Ops {
		t.Fatalf("ops=%d errors=%d, want every op counted as an error", rep.Ops, rep.Errors)
	}
	if _, err := Run(context.Background(), stubWorkload{}, &failExecutor{setupErr: errors.New("no")}, RunConfig{}); err == nil {
		t.Fatal("Setup error was not fatal")
	}
}

// gateExecutor is an AsyncExecutor whose waits block until the first
// worker fills its pipeline; from then on every wait returns at once.
// Every third op fails.
type gateExecutor struct {
	stallExecutor
	limit    int
	once     sync.Once
	release  chan struct{}
	mu       sync.Mutex
	out      map[int]int // outstanding ops per worker
	max      int
	issued   int64
	resolved int64
	failed   int64
}

func (e *gateExecutor) DoAsync(worker int, op Op) func(context.Context) error {
	e.mu.Lock()
	e.issued++
	fail := e.issued%3 == 0
	e.out[worker]++
	if e.out[worker] > e.max {
		e.max = e.out[worker]
	}
	if e.out[worker] == e.limit {
		e.once.Do(func() { close(e.release) })
	}
	e.mu.Unlock()
	return func(ctx context.Context) error {
		select {
		case <-e.release:
		case <-ctx.Done():
			return ctx.Err()
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		e.out[worker]--
		e.resolved++
		if fail {
			e.failed++
			return errors.New("boom")
		}
		return nil
	}
}

// TestRunInflight: the pipelined closed loop keeps at most Inflight
// ops outstanding per worker and reaches that limit, every resolved
// op (failed ones too) counts in Ops, and Inflight refuses an open
// loop and an executor without DoAsync.
func TestRunInflight(t *testing.T) {
	const inflight = 4
	exec := &gateExecutor{limit: inflight, release: make(chan struct{}), out: make(map[int]int)}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rep, err := Run(ctx, stubWorkload{}, exec, RunConfig{
		Workers: 2, Duration: 50 * time.Millisecond, Inflight: inflight,
	})
	if err != nil {
		t.Fatal(err)
	}
	if exec.max != inflight {
		t.Errorf("max outstanding per worker = %d, want exactly %d", exec.max, inflight)
	}
	if rep.Ops != exec.resolved || rep.Ops != exec.issued || rep.Errors != exec.failed {
		t.Errorf("ops=%d errors=%d, executor issued %d resolved %d failed %d",
			rep.Ops, rep.Errors, exec.issued, exec.resolved, exec.failed)
	}
	if rep.Mode != "closed" || rep.Intended.Count() != rep.Ops || rep.Mix["read"] != 1 {
		t.Errorf("mode=%s intended=%d mix=%v", rep.Mode, rep.Intended.Count(), rep.Mix)
	}
	if _, err := Run(ctx, stubWorkload{}, exec, RunConfig{Rate: 100, Inflight: inflight}); err == nil {
		t.Error("Inflight with Rate > 0 was accepted")
	}
	if _, err := Run(ctx, stubWorkload{}, &stallExecutor{}, RunConfig{Inflight: inflight}); err == nil {
		t.Error("Inflight with an executor lacking DoAsync was accepted")
	}
}
