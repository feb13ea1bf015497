package main

// The -sla scenario: a self-contained consistency-SLA benchmark on a
// skewed topology. ccload injects a serving delay on every replica
// except replica 0 (so each session's affinity replica is slow while
// replica 0 is fast), then runs the -scenario workload three times,
// one bench.Run per router on its own fresh client — the adaptive
// utility-maximizing router, static affinity, and static any — and
// compares delivered mean utility. The acceptance contract (enforced
// with -require-verdicts): the adaptive router sends >= 90% of SLA
// reads to the fast replica while it is fresh, and beats BOTH static
// baselines on mean utility. An optional -sla-partition window cuts
// the fast replica off mid-phase to force recorded downgrade
// verdicts.

import (
	"context"
	"fmt"
	"time"

	"github.com/paper-repro/ccbm/cc/bench"
	"github.com/paper-repro/ccbm/cc/client"
	"github.com/paper-repro/ccbm/cc/cluster/wire"
	"github.com/paper-repro/ccbm/cc/sla"
)

// slowHomed pins every worker to a SLOW affinity replica (1..n-1):
// the scenario measures whether reads escape a slow home, which is
// trivially true for sessions homed at replica 0.
type slowHomed struct {
	*bench.ClientExecutor
	replicas int
}

func (e slowHomed) home(w int) int {
	return 1 + w%(e.replicas-1) + (w/(e.replicas-1))*e.replicas
}

func (e slowHomed) Do(ctx context.Context, worker int, op bench.Op) error {
	return e.ClientExecutor.Do(ctx, e.home(worker), op)
}

func (e slowHomed) DoAsync(worker int, op bench.Op) func(context.Context) error {
	return e.ClientExecutor.DoAsync(e.home(worker), op)
}

// slaPhase is one router variant measured over the full workload.
type slaPhase struct {
	name   string
	router sla.Router // nil = the adaptive default (sla.MaxUtility)
}

// slaResult is what one phase produced.
type slaResult struct {
	name      string
	rep       *bench.Report
	m         client.SLAMetrics
	fastShare float64 // SLA reads served by replica 0
}

// runSLA drives the whole scenario and returns the process exit code.
func runSLA(cfg *config) int {
	ctx := context.Background()
	out := cfg.stdout

	// Admin client: health, topology discovery, fault injection.
	admin, err := cfg.newClient()
	if err != nil {
		return cfg.fail(err)
	}
	defer admin.Close()
	st, err := admin.Staleness(ctx)
	if err != nil || len(st.Shards) == 0 {
		return cfg.fail(fmt.Errorf("staleness probe: %v", err))
	}
	replicas := len(st.Shards[0].Replicas)
	if replicas < 2 {
		fmt.Fprintln(cfg.stderr, "ccload: -sla needs at least 2 replicas")
		return 2
	}
	// Skew the topology: every replica but 0 serves slow.
	for r := 1; r < replicas; r++ {
		if err := admin.Fault(ctx, &wire.FaultRequest{
			Action: wire.FaultReplicaDelay, Replica: r, DelayUS: cfg.slaSlow.Microseconds(),
		}); err != nil {
			return cfg.fail(fmt.Errorf("replica delay: %w", err))
		}
	}
	fmt.Fprintf(out, "ccload: sla scenario %s, %d replicas (replica 0 fast, %v delay on the rest), spec %q\n",
		cfg.scenario, replicas, cfg.slaSlow, cfg.slaSpecText)

	phases := []slaPhase{
		{name: "adaptive", router: nil},
		{name: "static_affinity", router: sla.StaticAffinity{}},
		{name: "static_any", router: sla.StaticAny{}},
	}
	results := make([]slaResult, 0, len(phases))
	for _, ph := range phases {
		res, err := runSLAPhase(ctx, cfg, ph, replicas)
		if err != nil {
			return cfg.fail(fmt.Errorf("phase %s: %w", ph.name, err))
		}
		results = append(results, res)
		fmt.Fprintf(out, "sla %-15s %6d ops (%.0f ops/s) %d errors\n", res.name, res.rep.Ops, res.rep.Achieved, res.rep.Errors)
		fmt.Fprintf(out, "    reads=%d by-replica=%v by-sub=%v misses=%d lat-misses=%d mean-utility=%.3f fast-share=%.3f\n",
			res.m.Reads, res.m.ByReplica, res.m.BySubSLA, res.m.Misses, res.m.LatencyMisses,
			res.m.MeanUtility, res.fastShare)
		for _, c := range res.m.Conditions {
			fmt.Fprintf(out, "    replica %d: latency=%v staleness=%v failed=%v\n",
				c.Replica, c.Latency.Round(time.Microsecond), c.Staleness.Round(time.Microsecond), c.Failed)
		}
	}

	adaptive, statAff, statAny := results[0], results[1], results[2]
	var failures []string
	// The >=90% routing claim only holds while the fast replica stays
	// fresh; a partition window deliberately breaks that.
	if cfg.slaPartition == 0 && adaptive.fastShare < 0.9 {
		failures = append(failures, fmt.Sprintf(
			"adaptive fast-replica share %.3f < 0.90", adaptive.fastShare))
	}
	if adaptive.m.MeanUtility <= statAff.m.MeanUtility {
		failures = append(failures, fmt.Sprintf(
			"adaptive mean utility %.3f <= static_affinity %.3f",
			adaptive.m.MeanUtility, statAff.m.MeanUtility))
	}
	if adaptive.m.MeanUtility <= statAny.m.MeanUtility {
		failures = append(failures, fmt.Sprintf(
			"adaptive mean utility %.3f <= static_any %.3f",
			adaptive.m.MeanUtility, statAny.m.MeanUtility))
	}
	if cfg.slaPartition > 0 && adaptive.m.Misses == 0 {
		failures = append(failures, "partition window produced no downgrade verdicts")
	}
	for _, f := range failures {
		fmt.Fprintln(cfg.stderr, "ccload: sla:", f)
	}
	if len(failures) == 0 {
		fmt.Fprintln(out, "ccload: sla contract holds (adaptive beats both static baselines)")
	}

	phaseOut := make([]map[string]any, 0, len(results))
	for _, r := range results {
		phaseOut = append(phaseOut, map[string]any{
			"phase": r.name, "ops": r.rep.Ops, "ops_per_sec": round1(r.rep.Achieved), "errors": r.rep.Errors,
			"sla_reads": r.m.Reads, "by_replica": r.m.ByReplica, "by_sub_sla": r.m.BySubSLA,
			"misses": r.m.Misses, "latency_misses": r.m.LatencyMisses,
			"mean_utility": round3(r.m.MeanUtility), "fast_share": round3(r.fastShare),
		})
	}
	if err := cfg.record("ccload sla scenario", map[string]any{
		"config": map[string]any{
			"scenario": "sla", "workload": cfg.scenario, "clients": cfg.clients, "objects": cfg.objects,
			"duration_per_phase": cfg.duration.String(), "replicas": replicas,
			"slow_delay": cfg.slaSlow.String(), "partition_window": cfg.slaPartition.String(),
			"sla": cfg.slaSpecText, "batch": cfg.batch,
		},
		"phases":   phaseOut,
		"verdicts": failures,
	}); err != nil {
		return cfg.fail(err)
	}
	if cfg.requireVerdicts && len(failures) > 0 {
		return 1
	}
	return 0
}

// runSLAPhase runs one router variant as one bench.Run on a fresh
// client (clean tracker, clean metrics). The executor's Setup creates
// the population on this client, so it learns each object's ADT — the
// SDK SLA-routes only operations it can classify as queries.
func runSLAPhase(ctx context.Context, cfg *config, ph slaPhase, replicas int) (slaResult, error) {
	opts := []client.Option{client.WithSLA(cfg.slaSpec)}
	if ph.router != nil {
		opts = append(opts, client.WithSLARouter(ph.router))
	}
	cli, err := cfg.newClient(opts...)
	if err != nil {
		return slaResult{}, err
	}
	defer cli.Close()
	run := cfg.runConfig()
	w, err := bench.NewScenario(cfg.scenario, cfg.objects, run)
	if err != nil {
		return slaResult{}, err
	}

	// Optional mid-phase partition window (adaptive phase only): cut
	// the fast replica away so its staleness grows and the router has
	// to downgrade, recording delivered-consistency misses.
	faultDone := make(chan struct{})
	go func() {
		defer close(faultDone)
		if ph.router != nil || cfg.slaPartition <= 0 {
			return
		}
		time.Sleep(cfg.duration * 3 / 10)
		groups := [][]int{{0}, make([]int, 0, replicas-1)}
		for r := 1; r < replicas; r++ {
			groups[1] = append(groups[1], r)
		}
		if err := cli.Fault(ctx, &wire.FaultRequest{Action: wire.FaultPartition, Groups: groups}); err != nil {
			fmt.Fprintln(cfg.stderr, "ccload: partition:", err)
			return
		}
		time.Sleep(cfg.slaPartition)
		if err := cli.Fault(ctx, &wire.FaultRequest{Action: wire.FaultHeal}); err != nil {
			fmt.Fprintln(cfg.stderr, "ccload: heal:", err)
		}
	}()

	rep, err := bench.Run(ctx, w, slowHomed{bench.NewClientExecutor(cli, 0), replicas}, run)
	<-faultDone
	if err != nil {
		return slaResult{}, err
	}
	res := slaResult{name: ph.name, rep: rep, m: cli.Metrics().SLA}
	if res.m.Reads > 0 {
		res.fastShare = float64(res.m.ByReplica[0]) / float64(res.m.Reads)
	}
	return res, nil
}
