package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

func TestSelfTimesSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{Layer: layerOp, ID: 1, Start: 0, End: 100},
		// Two children that overlap on [40,60]: they cover [10,90] = 80,
		// not 50+50.
		{Layer: layerTransport, ID: 2, Parents: []uint64{1}, Start: 10, End: 60},
		{Layer: layerTransport, ID: 3, Parents: []uint64{1}, Start: 40, End: 90},
		{Layer: layerRoundTrip, ID: 4, Parents: []uint64{2}, Start: 20, End: 50},
		// A child reaching past its parent's end counts only inside it.
		{Layer: layerHandler, ID: 5, Parents: []uint64{4}, Start: 30, End: 70},
	}
	got := selfTimes(spans)
	if got.Ops != 1 || got.OpNS != 100 {
		t.Fatalf("ops=%d opNS=%v, want 1 and 100", got.Ops, got.OpNS)
	}
	want := [numLayers]float64{layerOp: 20, layerTransport: 20 + 50, layerRoundTrip: 10, layerHandler: 40}
	if got.SelfNS != want {
		t.Fatalf("self times %v, want %v", got.SelfNS, want)
	}
}

func TestSelfTimesCountsBatchSpansOncePerOperation(t *testing.T) {
	spans := []span{
		{Layer: layerOp, ID: 10, Start: 0, End: 100},
		{Layer: layerOp, ID: 11, Start: 0, End: 80},
		// One batch request carries both operations.
		{Layer: layerTransport, ID: 12, Parents: []uint64{10, 11}, Start: 20, End: 70},
		{Layer: layerRoundTrip, ID: 13, Parents: []uint64{12}, Start: 30, End: 60},
	}
	got := selfTimes(spans)
	// Op selves 50 and 30; the transport's 20 and the round trip's 30
	// each count twice, so the layers add up to the two op spans.
	want := [numLayers]float64{layerOp: 80, layerTransport: 40, layerRoundTrip: 60}
	if got.SelfNS != want {
		t.Fatalf("self times %v, want %v", got.SelfNS, want)
	}
	sum := 0.0
	for _, v := range got.SelfNS {
		sum += v
	}
	if sum != got.OpNS {
		t.Fatalf("layers sum to %v, op spans to %v", sum, got.OpNS)
	}
}

func TestQuartilesMatchPythonInclusiveMethod(t *testing.T) {
	// Expected values from statistics.quantiles(values, n=4, method="inclusive").
	for _, c := range []struct {
		values         []float64
		q1, median, q3 float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 2, 3, 4},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 32.5, 55, 77.5},
		{[]float64{1, 2}, 1.25, 1.5, 1.75},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, med, q3 := quartiles(c.values)
		if q1 != c.q1 || med != c.median || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.values, q1, med, q3, c.q1, c.median, c.q3)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	bounds := []bound{
		{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.08},
		{Name: "p50_us", Unit: "us", Better: "lower", Bound: 0.10},
	}
	file := func(ops, p50 []float64, nodes float64) resultFile {
		return resultFile{Workloads: []result{{Workload: "w", Metrics: map[string]stat{
			"ops_per_s":      newStat("1/s", ops),
			"p50_us":         newStat("us", p50),
			"nodes_per_pass": newStat("count", []float64{nodes, nodes, nodes}),
		}}}}
	}
	steady := []float64{99, 100, 101, 100, 100}
	parent := file(steady, steady, 1000)
	verdicts := func(change resultFile) map[string]string {
		out := make(map[string]string)
		for _, r := range compare(bounds, parent, change) {
			out[r.Metric] = r.Verdict
		}
		return out
	}
	for _, c := range []struct {
		name   string
		change resultFile
		want   map[string]string
	}{
		{"same", parent, map[string]string{"ops_per_s": verdictOK, "p50_us": verdictOK, "nodes_per_pass": verdictOK}},
		{"throughput down 10%, latency up 5%, one more node",
			file([]float64{89, 90, 91, 90, 90}, []float64{104, 105, 106, 105, 105}, 1001),
			map[string]string{"ops_per_s": verdictRegressed, "p50_us": verdictOK, "nodes_per_pass": verdictRegressed}},
		{"better on both, fewer nodes",
			file([]float64{119, 120, 121, 120, 120}, []float64{79, 80, 81, 80, 80}, 900),
			map[string]string{"ops_per_s": verdictOK, "p50_us": verdictOK, "nodes_per_pass": verdictOK}},
		{"spread wider than the bound",
			file([]float64{70, 90, 100, 110, 130}, steady, 1000),
			map[string]string{"ops_per_s": verdictUnresolved, "p50_us": verdictOK, "nodes_per_pass": verdictOK}},
	} {
		got := verdicts(c.change)
		for metric, want := range c.want {
			if got[metric] != want {
				t.Errorf("%s: %s is %q, want %q", c.name, metric, got[metric], want)
			}
		}
	}
}

func TestNodesPerPassRepeatsExactly(t *testing.T) {
	ctx := context.Background()
	a, err := verifyPass(ctx, corpus())
	if err != nil {
		t.Fatal(err)
	}
	b, err := verifyPass(ctx, corpus())
	if err != nil {
		t.Fatal(err)
	}
	if a.nodes == 0 || a.nodes != b.nodes || a.canonHits != b.canonHits || a.sleepSkips != b.sleepSkips {
		t.Fatalf("two passes differ: %+v vs %+v", a, b)
	}
}

// A wrong expected verdict must fail the run before any timing: this is
// the check main turns into a non-zero exit.
func TestWrongExpectedVerdictFailsTheRun(t *testing.T) {
	wrong := func() []checkCase {
		cs := corpus()
		cs[0].expect = !cs[0].expect
		return cs
	}
	if _, _, _, err := checkRep(context.Background(), wrong, 10*time.Millisecond, nil); err == nil {
		t.Fatal("checkRep accepted a corpus whose first expected verdict is wrong")
	}
}

func TestListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if !valid.MatchString(w.Name) {
			t.Errorf("workload name %q is not a valid name", w.Name)
		}
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, spec.Workloads[i], w.Name, w.Why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd[:gated])
	same("per_layer", spec.PerLayer, perLayer[:perLayerGated])
}

func TestSmokeRepOfEveryWorkload(t *testing.T) {
	ctx := context.Background()
	const d = 200 * time.Millisecond
	for _, w := range workloads {
		var res repResult
		var err error
		if w.Scenario == "" {
			res, _, _, err = checkRep(ctx, corpus, d, nil)
		} else {
			res, _, err = servingRep(ctx, w, repSeed(1, 0), 50*time.Millisecond, d, nil)
		}
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.attempted == 0 || res.values["error_share"] != 0 {
			t.Errorf("%s: attempted %d, error_share %v, want some and 0", w.Name, res.attempted, res.values["error_share"])
		}
	}
}

// The traced path end to end on the batched workload, where one
// transport span carries many operations: every op span must be carried
// by exactly one request, and the layers must add up to the op spans.
func TestTracedBatchRepAddsUp(t *testing.T) {
	w, _ := lookupWorkload("write.batch")
	tr := newTracer()
	res, _, err := servingRep(context.Background(), w, repSeed(1, 0), 50*time.Millisecond, 200*time.Millisecond, tr)
	if err != nil {
		t.Fatal(err)
	}
	self := selfTimes(tr.spans)
	if self.Ops != res.attempted || tr.carried.Load() != res.attempted {
		t.Fatalf("%d operations, %d op spans, %d carried by requests", res.attempted, self.Ops, tr.carried.Load())
	}
	sum := 0.0
	for _, v := range self.SelfNS {
		sum += v
	}
	if diff := (sum - self.OpNS) / self.OpNS; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("layers sum to %v ns, op spans to %v ns", sum, self.OpNS)
	}
	if self.SelfNS[layerHandler] == 0 {
		t.Fatal("no handler span was linked to a round trip")
	}
}
