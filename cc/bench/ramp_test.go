package bench

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// degradingExecutor is fast for the first fastSteps ramp steps, then
// takes perOp for every call — a service with a hard capacity edge.
// It keys off Setup calls, which Ramp re-runs once per step.
type degradingExecutor struct {
	setups    atomic.Int64
	fastSteps int64
	perOp     time.Duration
}

func (e *degradingExecutor) Setup(ctx context.Context, objs []ObjectSpec) error {
	e.setups.Add(1)
	return nil
}

func (e *degradingExecutor) Do(ctx context.Context, worker int, op Op) error {
	if e.setups.Load() > e.fastSteps {
		time.Sleep(e.perOp)
	}
	return nil
}

// TestRampFindsKnee: three fast steps, then the executor degrades to
// 20ms/op — a single worker at the fourth step's 400 ops/s achieves
// at most ~50/s, far under the 0.9 floor. The knee must be the third
// step (the last sustained rate).
func TestRampFindsKnee(t *testing.T) {
	exec := &degradingExecutor{fastSteps: 3, perOp: 20 * time.Millisecond}
	res, err := Ramp(context.Background(), stubWorkload{}, exec, RunConfig{
		Workers: 1,
		Arrival: ArrivalFixed,
		Seed:    1,
	}, RampConfig{
		StartRate:    50,
		Factor:       2,
		Steps:        6,
		StepDuration: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 4 {
		t.Fatalf("ramp ran %d steps %+v, want 4 (three sustained + the break)", len(res.Steps), res.Steps)
	}
	for i := 0; i < 3; i++ {
		if !res.Steps[i].Sustained {
			t.Errorf("step %d (%.0f ops/s) not sustained: %+v", i, res.Steps[i].OfferedRate, res.Steps[i])
		}
	}
	if res.Steps[3].Sustained {
		t.Errorf("step 3 (%.0f ops/s) sustained despite 20ms/op service", res.Steps[3].OfferedRate)
	}
	if res.Knee == nil {
		t.Fatal("no knee reported")
	}
	if res.Knee.Step != 2 || res.Knee.Rate != 200 {
		t.Errorf("knee = %+v, want step 2 at 200 ops/s", res.Knee)
	}
	if res.Knee.Reason != "achieved rate below floor" {
		t.Errorf("knee reason = %q", res.Knee.Reason)
	}
	lr := res.Result()
	if lr.Mode != "ramp" || lr.Knee == nil || len(lr.Steps) != 4 || lr.Intended == nil {
		t.Errorf("Result() = mode %q, knee %v, %d steps — want the knee step rendered", lr.Mode, lr.Knee, len(lr.Steps))
	}
}

// TestRampNothingSustains: when even the first step breaks the
// service there is no knee, and the failure is still documented in
// Steps.
func TestRampNothingSustains(t *testing.T) {
	exec := &degradingExecutor{fastSteps: 0, perOp: 20 * time.Millisecond}
	res, err := Ramp(context.Background(), stubWorkload{}, exec, RunConfig{
		Workers: 1,
		Arrival: ArrivalFixed,
	}, RampConfig{
		StartRate:    400,
		StepDuration: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Knee != nil {
		t.Fatalf("knee = %+v, want none when nothing sustains", res.Knee)
	}
	if len(res.Steps) != 1 || res.Steps[0].Sustained {
		t.Fatalf("steps = %+v, want one unsustained step", res.Steps)
	}
	lr := res.Result()
	if lr.Mode != "ramp" || lr.Knee != nil {
		t.Errorf("Result() mode/knee = %q/%v", lr.Mode, lr.Knee)
	}
}

// TestRampAllSustain: a service that never breaks exhausts the ramp;
// the knee is the final step with the exhaustion reason.
func TestRampAllSustain(t *testing.T) {
	exec := &degradingExecutor{fastSteps: 1 << 30}
	res, err := Ramp(context.Background(), stubWorkload{}, exec, RunConfig{
		Workers: 1,
		Arrival: ArrivalFixed,
	}, RampConfig{
		StartRate:    50,
		Factor:       2,
		Steps:        3,
		StepDuration: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 3 || res.Knee == nil || res.Knee.Step != 2 {
		t.Fatalf("steps=%d knee=%+v, want 3 steps with knee at the last", len(res.Steps), res.Knee)
	}
	if res.Knee.Reason != "ramp exhausted without breaking the service" {
		t.Errorf("knee reason = %q", res.Knee.Reason)
	}
}

// TestRampJudgesGoodput: a service that fails every op answers at
// any offered rate, so Achieved (which counts failed ops) keeps up,
// but it delivers nothing. The ramp must judge goodput and find no
// knee.
func TestRampJudgesGoodput(t *testing.T) {
	res, err := Ramp(context.Background(), stubWorkload{}, &failExecutor{}, RunConfig{
		Workers: 1,
		Arrival: ArrivalFixed,
	}, RampConfig{
		StartRate:    200,
		Steps:        2,
		StepDuration: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Knee != nil {
		t.Fatalf("knee = %+v over a service that failed every op, want none", res.Knee)
	}
	if len(res.Steps) != 1 || res.Steps[0].Sustained || res.Steps[0].Errors == 0 {
		t.Fatalf("steps = %+v, want one unsustained step with errors", res.Steps)
	}
}
