package bench

import (
	"context"
	"time"

	"github.com/paper-repro/ccbm/internal/benchrec"
)

// RampStep is one measured step of a ramp (the BENCH_*.json shape).
type RampStep = benchrec.RampStep

// Knee is the ramp controller's verdict: the highest offered rate the
// service sustained.
type Knee = benchrec.Knee

// RampConfig parameterizes a knee-finding ramp.
type RampConfig struct {
	// StartRate is the first step's offered rate in ops/s (default
	// 100). Each subsequent step multiplies by Factor (default 1.5).
	StartRate float64
	Factor    float64
	// Steps bounds the ramp (default 8).
	Steps int
	// StepDuration is each step's measurement window (default 1s).
	StepDuration time.Duration
	// FloorRatio declares a step unsustained when achieved/offered
	// falls below it (default 0.9).
	FloorRatio float64
	// MaxP99 declares a step unsustained when the intended-clock p99
	// exceeds it. 0 disables the latency criterion.
	MaxP99 time.Duration
}

func (c *RampConfig) fill() {
	if c.StartRate <= 0 {
		c.StartRate = 100
	}
	if c.Factor <= 1 {
		c.Factor = 1.5
	}
	if c.Steps <= 0 {
		c.Steps = 8
	}
	if c.StepDuration <= 0 {
		c.StepDuration = time.Second
	}
	if c.FloorRatio <= 0 || c.FloorRatio > 1 {
		c.FloorRatio = 0.9
	}
}

// RampResult is the outcome of a ramp: every measured step, the knee
// (nil when even the first step was unsustained), and the per-step
// reports for callers that want the full histograms.
type RampResult struct {
	Scenario string
	Steps    []RampStep
	Knee     *Knee
	Reports  []*Report
}

// Result renders the ramp as the BENCH_*.json record shape. The
// percentile records are the knee step's (the last sustained rate) —
// or the first step's when nothing sustained, so the failure is
// still documented.
func (r *RampResult) Result() LoadResult {
	pick := 0
	if r.Knee != nil {
		pick = r.Knee.Step
	}
	var res LoadResult
	if pick < len(r.Reports) {
		res = r.Reports[pick].Result()
	}
	res.Scenario = r.Scenario
	res.Mode = "ramp"
	res.Steps = r.Steps
	res.Knee = r.Knee
	return res
}

// Ramp steps the offered rate geometrically until the service stops
// keeping up — goodput (ops that succeeded, per second) below
// FloorRatio of offered, or intended p99 past MaxP99 — and reports
// the last sustained step as the knee.
// The workload is Init'ed once and re-drives the same population at
// every step (Setup re-runs, idempotently). cfg's Rate and Duration
// are overridden per step.
func Ramp(ctx context.Context, w Workload, exec Executor, cfg RunConfig, rc RampConfig) (*RampResult, error) {
	rc.fill()
	res := &RampResult{Scenario: w.Name()}
	rate := rc.StartRate
	baseSeed := cfg.Seed
	for step := 0; step < rc.Steps; step++ {
		cfg.Rate = rate
		cfg.Duration = rc.StepDuration
		cfg.Seed = baseSeed + int64(step)*1000 // fresh op streams each step
		rep, err := Run(ctx, w, exec, cfg)
		if err != nil {
			return res, err
		}
		p99 := time.Duration(rep.Intended.Quantile(0.99))
		// Judge goodput: Achieved counts failed ops too, and a service
		// that fails every op keeps up with any offered rate.
		goodput := float64(rep.Ops-rep.Errors) / rep.Elapsed.Seconds()
		sustained := goodput >= rc.FloorRatio*rep.Offered
		reason := ""
		if !sustained {
			reason = "achieved rate below floor"
		} else if rc.MaxP99 > 0 && p99 > rc.MaxP99 {
			sustained = false
			reason = "intended p99 over limit"
		}
		res.Reports = append(res.Reports, rep)
		res.Steps = append(res.Steps, RampStep{
			OfferedRate:  rep.Offered,
			AchievedRate: rep.Achieved,
			P99US:        float64(p99) / 1e3,
			Errors:       rep.Errors,
			Sustained:    sustained,
		})
		if !sustained {
			if res.Knee != nil {
				res.Knee.Reason = reason
			}
			return res, nil
		}
		res.Knee = &Knee{
			Rate:     rep.Offered,
			Achieved: rep.Achieved,
			P99US:    float64(p99) / 1e3,
			Step:     step,
			Reason:   "ramp exhausted without breaking the service",
		}
		rate *= rc.Factor
	}
	return res, nil
}
