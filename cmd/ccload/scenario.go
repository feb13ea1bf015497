package main

// The scenario run: drive a named cc/bench workload against the
// server, open loop (-rate) or closed (pipelined with -batch),
// optionally ramping the offered rate to find the knee of the
// throughput/latency curve. Everything — op generation, arrival
// clocks, histograms, knee detection — comes from cc/bench; this file
// only wires printing and exit codes.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"github.com/paper-repro/ccbm/cc/bench"
	"github.com/paper-repro/ccbm/cc/client"
	"github.com/paper-repro/ccbm/cc/cluster/wire"
)

// runScenario drives the scenario and returns the process exit code.
func runScenario(cfg *config) int {
	ctx := context.Background()
	cli, err := cfg.newClient(client.WithReadTarget(cfg.readTarget))
	if err != nil {
		return cfg.fail(err)
	}
	defer cli.Close()

	run := cfg.runConfig()
	w, err := bench.NewScenario(cfg.scenario, cfg.objects, run)
	if err != nil {
		return cfg.fail(err)
	}
	exec := bench.NewClientExecutor(cli, 0)
	out := cfg.stdout

	var result bench.LoadResult
	kneeFound := false
	if cfg.ramp {
		rc := cfg.rampCfg
		fmt.Fprintf(out, "ccload: scenario %s ramp from %.0f ops/s (x%.2f, %d steps of %v, floor %.2f)\n",
			w.Name(), rc.StartRate, rc.Factor, rc.Steps, rc.StepDuration, rc.FloorRatio)
		rr, err := bench.Ramp(ctx, w, exec, run, rc)
		if err != nil {
			return cfg.fail(fmt.Errorf("ramp: %w", err))
		}
		for i, st := range rr.Steps {
			state := "sustained"
			if !st.Sustained {
				state = "BROKE"
			}
			fmt.Fprintf(out, "ramp step %d: offered=%.0f achieved=%.0f ops/s p99=%.0fµs errors=%d %s\n",
				i, st.OfferedRate, st.AchievedRate, st.P99US, st.Errors, state)
		}
		if rr.Knee != nil {
			kneeFound = true
			fmt.Fprintf(out, "knee: %.0f ops/s offered (%.0f achieved, p99=%.0fµs) at step %d — %s\n",
				rr.Knee.Rate, rr.Knee.Achieved, rr.Knee.P99US, rr.Knee.Step, rr.Knee.Reason)
		} else {
			fmt.Fprintln(out, "knee: none — even the first step was unsustained")
		}
		result = rr.Result()
	} else {
		mode := "closed loop"
		switch {
		case run.Rate > 0:
			mode = fmt.Sprintf("open loop (%s) offered=%.0f ops/s", run.Arrival, run.Rate)
		case run.Inflight > 1:
			mode = fmt.Sprintf("closed loop, %d in flight per worker", run.Inflight)
		}
		fmt.Fprintf(out, "ccload: scenario %s, %s, %d workers, %v, read-target %s\n",
			w.Name(), mode, cfg.clients, cfg.duration, cfg.readTarget)
		rep, err := bench.Run(ctx, w, exec, run)
		if err != nil {
			return cfg.fail(fmt.Errorf("run: %w", err))
		}
		printReport(out, rep)
		result = rep.Result()
	}

	sum, err := cli.MonitorSummary(ctx)
	if err != nil {
		fmt.Fprintln(cfg.stderr, "ccload: monitor:", err)
		sum = &wire.MonitorSummary{}
	}
	monJSON, _ := json.Marshal(sum)
	fmt.Fprintf(out, "monitor %s\n", monJSON)
	if err := cfg.record("ccload scenario "+cfg.scenario, map[string]any{"load": result, "monitor": sum}); err != nil {
		return cfg.fail(err)
	}

	code := 0
	complain := func(msg string) {
		fmt.Fprintln(cfg.stderr, "ccload:", msg)
		code = 1
	}
	if cfg.requireVerdicts && sum.Verdicts == 0 {
		complain("monitor produced no verdicts")
	}
	if len(sum.Violations) > 0 {
		complain(fmt.Sprintf("monitor reported %d violations", len(sum.Violations)))
	}
	if result.Ops == 0 {
		complain("no operation completed")
	}
	if cfg.requireKnee && !kneeFound {
		complain("ramp found no sustained step")
	}
	return code
}

// printReport prints one Run's outcome: throughput, both latency
// clocks, and the realized op mix.
func printReport(out io.Writer, rep *bench.Report) {
	if rep.Offered > 0 {
		fmt.Fprintf(out, "ccload: %d ops in %v (%.0f ops/s achieved of %.0f offered), %d errors\n",
			rep.Ops, rep.Elapsed.Round(time.Millisecond), rep.Achieved, rep.Offered, rep.Errors)
	} else {
		fmt.Fprintf(out, "ccload: %d ops in %v (%.0f ops/s), %d errors\n",
			rep.Ops, rep.Elapsed.Round(time.Millisecond), rep.Achieved, rep.Errors)
	}
	printPct := func(name string, p bench.Percentiles) {
		fmt.Fprintf(out, "%-8s n=%d mean=%.0f p50=%.0f p95=%.0f p99=%.0f p999=%.0f max=%.0f µs\n",
			name, p.Count, p.MeanUS, p.P50US, p.P95US, p.P99US, p.P999US, p.MaxUS)
	}
	printPct("intended", rep.Intended.Percentiles())
	printPct("service", rep.Service.Percentiles())
	parts := make([]string, 0, len(rep.Mix))
	for _, kind := range sortedKeys(rep.Mix) {
		parts = append(parts, fmt.Sprintf("%s=%.3f", kind, rep.Mix[kind]))
	}
	fmt.Fprintf(out, "mix     %s\n", strings.Join(parts, " "))
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
