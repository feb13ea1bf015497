// Command ccload is the load generator for ccserved, built entirely
// on the public cc surface — the cc/client SDK, the cc/cluster/wire
// protocol, and the cc/bench workload subsystem (it hand-rolls no
// request structs, no op generators and no percentile math).
//
// Usage:
//
//	ccload -addr http://127.0.0.1:8344 -clients 8 -duration 5s -objects 16 \
//	       [-scenario mixed] [-read-target affinity|any] \
//	       [-batch] [-batch-ops 64] [-batch-wait 500us] \
//	       [-rate 500] [-arrival poisson|fixed] [-ramp ...] \
//	       [-sla] [-sla-spec "rmw@5ms=1,..."] [-sla-slow 20ms] [-sla-partition 0] \
//	       [-bench-out BENCH_runtime.json -label "..."] [-require-verdicts]
//
// Every operation comes from a named cc/bench scenario (-scenario,
// listed by -list-scenarios). The scenario declares its own ADT mix,
// key distribution and op percentages; the default, mixed, cycles six
// ADTs under Zipf popularity with 30% updates. Two modes:
//
//   - A scenario run (scenario.go). By default it is a closed loop:
//     -clients workers, one session each. -batch turns on client-side
//     batching (the SDK coalesces async invocations into batch
//     requests) and, in a closed loop, keeps 32 ops in flight per
//     worker; -read-target any issues Pileus-style weak reads. With
//     -rate R the run is OPEN loop: arrivals come from a target-rate
//     clock (-arrival poisson|fixed) and latency is measured from each
//     op's intended start, so queueing delay during server stalls is
//     charged instead of silently omitted (coordinated omission).
//     -ramp steps the offered rate from -ramp-start by -ramp-factor
//     until achieved/offered falls below -knee-floor or the intended
//     p99 blows -knee-p99, and reports the last sustained step as the
//     knee (-require-knee makes "no sustained step" a failure).
//
//   - -sla runs the consistency-SLA scenario (sla.go): skew the
//     topology with per-replica serving delays, then compare the
//     adaptive utility-maximizing read router against static affinity
//     and static any baselines on the same scenario.
//
// -bench-out appends a labelled entry (internal benchrec format, via
// cc/bench.AppendRecord) so a run becomes a recorded, comparable
// measurement. -require-verdicts exits non-zero unless the server's
// monitor produced at least one verdict during the run — the CI smoke
// contract. Usage errors exit 2, failed runs 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/paper-repro/ccbm/cc/bench"
	"github.com/paper-repro/ccbm/cc/client"
	"github.com/paper-repro/ccbm/cc/cluster/wire"
	"github.com/paper-repro/ccbm/cc/sla"
)

// batchInflight is how many ops a -batch worker keeps in flight.
const batchInflight = 32

// config carries the parsed flags to the two modes.
type config struct {
	stdout, stderr io.Writer

	addr, scenario   string
	clients, objects int
	duration         time.Duration
	seed             int64
	rate             float64
	arrival          bench.Arrival
	batch            bool
	batchOps         int
	batchWait        time.Duration
	readTarget       wire.ReadTarget

	ramp        bool
	rampCfg     bench.RampConfig
	requireKnee bool

	sla          bool
	slaSpec      sla.SLA
	slaSpecText  string
	slaSlow      time.Duration // delay injected on replicas 1..n-1
	slaPartition time.Duration // fast-replica partition window (0 = off)

	benchOut, label string
	requireVerdicts bool
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, drives the chosen mode and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	cfg := &config{stdout: stdout, stderr: stderr}
	fs := flag.NewFlagSet("ccload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.addr, "addr", "http://127.0.0.1:8344", "ccserved base URL")
	fs.IntVar(&cfg.clients, "clients", 8, "concurrent clients/workers (one session each)")
	fs.DurationVar(&cfg.duration, "duration", 5*time.Second, "run length (per phase with -sla)")
	fs.IntVar(&cfg.objects, "objects", 16, "base object population of the scenario")
	fs.Int64Var(&cfg.seed, "seed", 1, "random seed")
	fs.BoolVar(&cfg.batch, "batch", false, "client-side batching of async ops into batch requests")
	fs.IntVar(&cfg.batchOps, "batch-ops", 64, "client batch flush size (with -batch)")
	fs.DurationVar(&cfg.batchWait, "batch-wait", 500*time.Microsecond, "client batch flush delay (with -batch)")
	readTarget := fs.String("read-target", "affinity", "per-request read target: affinity or any")
	fs.StringVar(&cfg.scenario, "scenario", "mixed", "named cc/bench workload scenario (see -list-scenarios)")
	listScenarios := fs.Bool("list-scenarios", false, "list the registered workload scenarios and exit")
	fs.Float64Var(&cfg.rate, "rate", 0, "open-loop offered rate, total ops/s (0 = closed loop)")
	arrival := fs.String("arrival", "poisson", "open-loop arrival process: poisson or fixed")
	fs.BoolVar(&cfg.ramp, "ramp", false, "step the offered rate until the service breaks; report the knee")
	fs.Float64Var(&cfg.rampCfg.StartRate, "ramp-start", 100, "first ramp step's offered rate (ops/s)")
	fs.Float64Var(&cfg.rampCfg.Factor, "ramp-factor", 1.5, "multiplicative offered-rate step")
	fs.IntVar(&cfg.rampCfg.Steps, "ramp-steps", 8, "maximum ramp steps")
	fs.DurationVar(&cfg.rampCfg.StepDuration, "ramp-step-dur", time.Second, "measurement window per ramp step")
	fs.Float64Var(&cfg.rampCfg.FloorRatio, "knee-floor", 0.9, "a step is sustained when achieved/offered >= this")
	fs.DurationVar(&cfg.rampCfg.MaxP99, "knee-p99", 0, "a step is also unsustained when intended p99 exceeds this (0 = off)")
	fs.BoolVar(&cfg.requireKnee, "require-knee", false, "exit non-zero when no ramp step was sustained")
	fs.BoolVar(&cfg.sla, "sla", false, "run the consistency-SLA scenario (adaptive vs static read routing)")
	fs.StringVar(&cfg.slaSpecText, "sla-spec", "rmw@5ms=1,bounded:100ms@2ms=0.5,eventual=0.1", "consistency SLA for -sla (see cc/sla grammar)")
	fs.DurationVar(&cfg.slaSlow, "sla-slow", 20*time.Millisecond, "serving delay injected on every replica except 0 (with -sla)")
	fs.DurationVar(&cfg.slaPartition, "sla-partition", 0, "cut the fast replica off for this window mid-phase to force downgrades (with -sla)")
	fs.StringVar(&cfg.benchOut, "bench-out", "", "append a labelled result entry to this JSON file")
	fs.StringVar(&cfg.label, "label", "", "label for the bench entry")
	fs.BoolVar(&cfg.requireVerdicts, "require-verdicts", false, "exit non-zero unless the monitor produced verdicts")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *listScenarios {
		for _, s := range bench.Scenarios() {
			fmt.Fprintf(stdout, "%-13s %s\n", s.Name, s.Doc)
			mix := make([]string, 0, len(s.Profile.Mix))
			for _, m := range s.Profile.Mix {
				mix = append(mix, fmt.Sprintf("%s=%.2f", m.Kind, m.Fraction))
			}
			fmt.Fprintf(stdout, "%13s adts=%v dist=%s writes=%.2f mix %s\n",
				"", s.Profile.ADTs, s.Profile.Dist, s.Profile.WriteFraction(), strings.Join(mix, " "))
		}
		return 0
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "ccload: "+format+"\n", args...)
		return 2
	}
	cfg.readTarget, cfg.arrival = wire.ReadTarget(*readTarget), bench.Arrival(*arrival)
	switch {
	case cfg.clients < 1 || cfg.objects < 1:
		return usage("-clients and -objects must be at least 1")
	case !cfg.readTarget.Valid():
		return usage("-read-target must be affinity or any")
	case cfg.arrival != bench.ArrivalPoisson && cfg.arrival != bench.ArrivalFixed:
		return usage("-arrival must be poisson or fixed")
	case cfg.batch && cfg.batchOps < 1:
		return usage("-batch-ops must be at least 1")
	}
	if _, err := bench.Lookup(cfg.scenario); err != nil {
		return usage("%v", err)
	}
	if !cfg.sla {
		return runScenario(cfg)
	}
	var err error
	switch {
	case cfg.ramp:
		return usage("-ramp and -sla are mutually exclusive")
	case cfg.slaSlow <= 0:
		return usage("-sla-slow must be positive (the scenario needs a skewed topology)")
	}
	if cfg.slaSpec, err = sla.Parse(cfg.slaSpecText); err != nil {
		return usage("-sla-spec: %v", err)
	}
	return runSLA(cfg)
}

// runConfig is one bench.Run's configuration. -batch pipelines a
// closed loop; open-loop and ramp runs issue one op at a time.
func (c *config) runConfig() bench.RunConfig {
	rc := bench.RunConfig{
		Workers: c.clients, Rate: c.rate, Arrival: c.arrival,
		Duration: c.duration, Seed: c.seed,
	}
	if c.batch && c.rate == 0 && !c.ramp {
		rc.Inflight = batchInflight
	}
	return rc
}

// newClient connects to the server (with -batch's batching) and waits
// until it is healthy.
func (c *config) newClient(opts ...client.Option) (*client.Client, error) {
	if c.batch {
		opts = append(opts, client.WithBatching(c.batchOps, c.batchWait))
	}
	cli, err := client.New(client.NewHTTPTransport(c.addr), opts...)
	if err != nil {
		return nil, err
	}
	if err := waitHealthy(cli, 10*time.Second); err != nil {
		cli.Close()
		return nil, err
	}
	return cli, nil
}

// fail reports err and returns the failed-run exit code.
func (c *config) fail(err error) int {
	fmt.Fprintln(c.stderr, "ccload:", err)
	return 1
}

// record appends a labelled entry to -bench-out, if set.
func (c *config) record(defaultLabel string, results map[string]any) error {
	if c.benchOut == "" {
		return nil
	}
	lbl := c.label
	if lbl == "" {
		lbl = defaultLabel
	}
	n, err := bench.AppendRecord(c.benchOut, lbl, results)
	if err != nil {
		return fmt.Errorf("bench-out: %w", err)
	}
	fmt.Fprintf(c.stdout, "recorded %s (%d entries)\n", c.benchOut, n)
	return nil
}

func round1(f float64) float64 { return float64(int64(f*10)) / 10 }
func round3(f float64) float64 { return float64(int64(f*1000)) / 1000 }

func waitHealthy(cli *client.Client, within time.Duration) error {
	deadline := time.Now().Add(within)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		h, err := cli.Health(ctx)
		cancel()
		if err == nil && h.OK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not healthy within %v: %v", within, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
