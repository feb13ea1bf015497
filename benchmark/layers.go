package main

// The traced pass: one traced repetition per workload for the span
// self times and boundary counts, one untraced repetition beside it for
// the tracing overhead, and the layer ladder for what lies below the
// HTTP handler. End-to-end numbers never come from here.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"github.com/paper-repro/ccbm/cc/cluster"
)

// perLayer lists, in print order, what a run with -trace 1 reports.
// The first perLayerGated are BENCHMARK.json's per_layer metrics, which
// every workload reports (0 where the layer does nothing); they are
// shares and counts, so that none is a time that is 0 on some workload.
// The rest are the absolute times behind the shares.
var perLayer = []metricDef{
	{"op_mean_us", "us"},
	{"trace_overhead_pct", "%"},
	{"client_pct", "%"},
	{"wire_http_pct", "%"},
	{"cluster_pct", "%"},
	{"station_pct", "%"},
	{"broadcast_pct", "%"},
	{"checker_busy_pct", "%"},
	{"ops_per_request", "count"},
	{"wire_bytes_per_op", "B"},
	{"ops_per_broadcast", "count"},
	{"applied_per_update", "count"},
	{"retries", "count"},
	{"windows_checked", "count"},
	{"explored_per_window", "count"},
	{"nodes_per_pass", "count"},

	{"client_self_us", "us"},
	{"transport_self_us", "us"},
	{"http_self_us", "us"},
	{"handler_us", "us"},
	{"codec_ns_per_op", "ns"},
	{"ladder_http_query_us", "us"},
	{"ladder_loopback_query_us", "us"},
	{"ladder_cluster_query_us", "us"},
	{"station_query_us", "us"},
	{"ladder_http_update_us", "us"},
	{"station_update_us", "us"},
	{"ladder_wire_http_us", "us"},
	{"ladder_client_us", "us"},
	{"cluster_self_us", "us"},
	{"broadcast_us", "us"},
	{"deliver_us", "us"},
	{"send_to_handler_us", "us"},
	{"converge_ms", "ms"},
	{"late_mean_us", "us"},
	{"gen_ns_per_op", "ns"},
	{"check_ms_per_window", "ms"},
	{"ns_per_node", "ns"},
	{"canon_hits", "count"},
	{"sleep_skips", "count"},
}

const perLayerGated = 16

// layers runs the traced pass of one workload. d is the length of each
// of its two repetitions; the ladder's rungs get a third of it each.
func layers(ctx context.Context, w workload, seed int64, d time.Duration, outDir string) (result, error) {
	out := result{Workload: w.Name, Why: w.Why, Metrics: make(map[string]stat)}
	fail := func(err error) (result, error) { return out, fmt.Errorf("%s: %w", w.Name, err) }
	seed = repSeed(seed, 0)
	t := newTracer()
	var (
		traced, plain repResult
		cl            *cluster.Cluster
		pc            passCounts
		busy          time.Duration
		err           error
	)
	if w.Scenario == "" {
		if traced, pc, busy, err = checkRep(ctx, corpus, d, t); err == nil {
			plain, _, _, err = checkRep(ctx, corpus, d, nil)
		}
	} else {
		if traced, cl, err = servingRep(ctx, w, seed, warmUp, d, t); err == nil {
			plain, _, err = servingRep(ctx, w, seed, warmUp, d, nil)
		}
	}
	if err != nil {
		return fail(err)
	}
	self := selfTimes(t.spans)
	if self.Ops == 0 {
		return fail(errors.New("the traced run recorded no op span"))
	}

	v := make(map[string]float64)
	for _, m := range perLayer[:perLayerGated] {
		v[m.Name] = 0
	}
	v["op_mean_us"] = self.OpNS / float64(self.Ops) / 1e3
	v["trace_overhead_pct"] = 100 * (plain.values["ops_per_s"] - traced.values["ops_per_s"]) / plain.values["ops_per_s"]
	if w.Scenario == "" {
		checkLayers(v, traced, pc, busy)
		out.Nodes = pc.perCase
	} else if err := servingLayers(ctx, w, seed, d, t, self, traced, cl, v); err != nil {
		return fail(err)
	}

	out.Attempted, out.Failed = traced.attempted, traced.failed
	out.Problems = append(traced.problems, plain.problems...)
	out.Correct = len(out.Problems) == 0
	for _, m := range perLayer {
		if x, ok := v[m.Name]; ok {
			out.Metrics[m.Name] = newStat(m.Unit, []float64{x})
		}
	}
	if err := writeTrace(filepath.Join(outDir, "trace-"+w.Name+".json"), w.Name, t.spans); err != nil {
		return out, err
	}
	return out, nil
}

// servingLayers fills in a serving workload's layer metrics: the span
// self times and boundary counts of the traced repetition, the counts
// of its closed cluster, and the ladder.
func servingLayers(ctx context.Context, w workload, seed int64, d time.Duration, t *tracer, self layerSelf, traced repResult, cl *cluster.Cluster, v map[string]float64) error {
	ops := float64(self.Ops)
	v["client_self_us"] = self.SelfNS[layerOp] / ops / 1e3
	v["transport_self_us"] = self.SelfNS[layerTransport] / ops / 1e3
	v["http_self_us"] = self.SelfNS[layerRoundTrip] / ops / 1e3
	v["handler_us"] = self.SelfNS[layerHandler] / ops / 1e3
	v["client_pct"] = 100 * v["client_self_us"] / v["op_mean_us"]
	v["wire_http_pct"] = 100 * (v["transport_self_us"] + v["http_self_us"]) / v["op_mean_us"]

	if n := float64(t.carried.Load()); n > 0 {
		v["ops_per_request"] = n / float64(t.requests.Load())
		v["wire_bytes_per_op"] = float64(t.wireBytes.Load()) / n
	}
	var err error
	if v["codec_ns_per_op"], err = t.codecNSPerOp(); err != nil {
		return fmt.Errorf("codec: %w", err)
	}
	v["retries"] = traced.values["retries"]
	v["converge_ms"] = traced.values["converge_ms"]
	if w.Rate > 0 {
		v["late_mean_us"] = traced.values["late_mean_us"]
	}
	if st := cl.Stats().Totals; st.Broadcasts > 0 && st.Updates > 0 {
		v["ops_per_broadcast"] = float64(st.BatchedOps) / float64(st.Broadcasts)
		v["applied_per_update"] = float64(st.Applied) / float64(st.Updates)
	}
	if vs := cl.Monitor().Verdicts(); len(vs) > 0 {
		var explored, ms float64
		for _, vd := range vs {
			explored += float64(vd.Explored)
			ms += vd.ElapsedMS
		}
		n := float64(len(vs))
		v["windows_checked"] = n
		v["explored_per_window"] = explored / n
		v["check_ms_per_window"] = ms / n
		v["checker_busy_pct"] = 100 * ms / (float64(warmUp+d) / float64(time.Millisecond))
	}

	// Generator cost: the stream the ladder replays, drawn alone.
	sc, err := newScenario(w, seed)
	if err != nil {
		return err
	}
	gen := session0(sc, seed)
	const draws = 100_000
	start := time.Now()
	for i := 0; i < draws; i++ {
		gen.NextOp(i)
	}
	v["gen_ns_per_op"] = float64(time.Since(start)) / draws

	ld, err := runLadder(ctx, w, seed, d/3)
	if err != nil {
		return err
	}
	// A query is pure CPU at every rung, so the differences between its
	// rungs resolve a layer's microsecond of self time; an update's rungs
	// all hold the same wait for the station's flush timer, which buries
	// such differences, so only its top and bottom rungs are reported.
	v["ladder_http_query_us"] = ld.HTTP.QueryUS
	v["ladder_loopback_query_us"] = ld.Loopback.QueryUS
	v["ladder_cluster_query_us"] = ld.Cluster.QueryUS
	v["station_query_us"] = ld.Station.QueryUS
	v["ladder_http_update_us"] = ld.HTTP.UpdateUS
	v["station_update_us"] = ld.Station.UpdateUS - ld.BroadcastUS
	v["ladder_wire_http_us"] = ld.HTTP.QueryUS - ld.Loopback.QueryUS
	v["ladder_client_us"] = ld.Loopback.QueryUS - ld.Cluster.QueryUS
	v["cluster_self_us"] = ld.Cluster.QueryUS - ld.Station.QueryUS
	v["broadcast_us"] = ld.BroadcastUS
	v["deliver_us"] = ld.DeliverAllUS
	v["send_to_handler_us"] = ld.SendToHandlerUS

	// The ladder splits the handler's share of an operation among the
	// layers below it, per operation of the mix: only updates broadcast.
	broadcastSelf := ld.BroadcastUS * float64(ld.Station.Updates) / float64(ld.Station.Ops)
	stationSelf := max(ld.Station.MeanUS-broadcastSelf, 0)
	clusterSelf := max(v["cluster_self_us"], 0)
	if below := clusterSelf + stationSelf + broadcastSelf; below > 0 {
		handlerPct := 100 * v["handler_us"] / v["op_mean_us"]
		v["cluster_pct"] = handlerPct * clusterSelf / below
		v["station_pct"] = handlerPct * stationSelf / below
		v["broadcast_pct"] = handlerPct * broadcastSelf / below
	}
	return nil
}

// checkLayers fills in check.windows' layer metrics; its only layer is
// the checker.
func checkLayers(v map[string]float64, traced repResult, pc passCounts, busy time.Duration) {
	n := float64(traced.attempted)
	passes := n / float64(len(pc.perCase))
	v["windows_checked"] = n
	v["explored_per_window"] = float64(pc.nodes) * passes / n
	v["check_ms_per_window"] = float64(busy) / float64(time.Millisecond) / n
	v["checker_busy_pct"] = 100 * busy.Seconds() / (n / traced.values["ops_per_s"])
	v["nodes_per_pass"] = float64(pc.nodes)
	v["ns_per_node"] = float64(busy) / (float64(pc.nodes) * passes)
	v["canon_hits"] = float64(pc.canonHits)
	v["sleep_skips"] = float64(pc.sleepSkips)
}
