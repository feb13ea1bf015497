package main

import (
	"context"
	"fmt"
	"time"
)

// workload is one named set of inputs. The names are fixed: later
// issues cite them.
type workload struct {
	Name string
	Why  string // one line: why this workload is in the benchmark

	// Scenario is the cc/bench scenario that generates the operations;
	// empty for check.windows, which has no cluster.
	Scenario    string
	Criterion   string
	Replication string
	// Rate is the offered rate in ops/s of an open loop with Poisson
	// arrivals; 0 is a closed loop (each worker sends its next operation
	// when the previous one returns).
	Rate float64
	// Batched turns on client batching and the pipelined driver.
	Batched bool
}

var workloads = []workload{
	{
		Name:     "read.http",
		Why:      "95% local zipf reads, per-op closed loop over HTTP: client, wire/HTTP and cluster dispatch are almost all of the latency; station flush and broadcast do little",
		Scenario: "read-heavy", Criterion: "CCv", Replication: "broadcast",
	},
	{
		Name:     "write.http",
		Why:      "80% counter updates, per-op closed loop over HTTP: every op waits for station enqueue, flush timer, broadcast and fold, so wire cost is a small share; bypasses what read.http rewards",
		Scenario: "write-heavy", Criterion: "CCv", Replication: "broadcast",
	},
	{
		Name:     "write.batch",
		Why:      "write.http's ops through client batches of 64 with 32 futures in flight per worker: the same station and broadcast layers used for throughput, where batch fill and lock hold time dominate",
		Scenario: "write-heavy", Criterion: "CCv", Replication: "broadcast", Batched: true,
	},
	{
		Name:     "cart.open",
		Why:      "session carts with read-your-writes under CC on the anti-entropy backend, open loop at 1500 ops/s (a third of capacity): latency at a normal operating point on the other replication path",
		Scenario: "session-cart", Criterion: "CC", Replication: "antientropy", Rate: 1500,
	},
	{
		Name: "check.windows",
		Why:  "no cluster: every Fig. 3 caption claim plus CC and CCv on monitor-window-shaped histories through the pruned checker, the paper's own workload and the monitor's cost model",
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one metric the benchmark prints, with its unit.
type metricDef struct{ Name, Unit string }

// endToEnd lists, in print order, what a run with -trace 0 measures per
// repetition. The first four are every workload's gated metrics, the
// ones BENCHMARK.json bounds; on check.windows an operation is one
// checker.Check call.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"p50_us", "us"},
	{"p99_us", "us"},
	{"setup_s", "s"},
	{"construct_ms", "ms"},
	{"p999_us", "us"},
	{"error_share", "share"},
	{"converge_ms", "ms"},
	{"achieved_ratio", "share"},
	{"late_mean_us", "us"},
	{"nodes_per_pass", "count"},
}

// gated is the number of leading endToEnd metrics every workload
// reports and BENCHMARK.json bounds.
const gated = 4

// result is what one workload's run yields.
type result struct {
	Workload  string          `json:"workload"`
	Why       string          `json:"why"`
	Correct   bool            `json:"correct"`
	Attempted int64           `json:"attempted"`
	Failed    int64           `json:"failed"`
	Problems  []string        `json:"problems,omitempty"`
	Metrics   map[string]stat `json:"metrics"`
	// Nodes is check.windows' exact node count per corpus case.
	Nodes map[string]int64 `json:"nodes,omitempty"`
}

// repSeed derives repetition i's seed. Every repetition draws its own
// operation streams and arrival schedule, so the median over them also
// averages over inputs: an open loop's Poisson schedule alone moves its
// completed count by 1.5% and its p99 by more. Seeds are spaced so that
// no two streams coincide: bench.Run seeds worker j with seed+j, and
// the warm-up runs at seed+5.
func repSeed(seed int64, i int) int64 { return seed*1000 + int64(i)*10 }

// measure runs the untraced repetitions of one workload, each on a
// fresh cluster, and summarizes every metric over them.
func measure(ctx context.Context, w workload, seed int64, reps int, d time.Duration) (result, error) {
	out := result{Workload: w.Name, Why: w.Why, Metrics: make(map[string]stat)}
	values := make(map[string][]float64)
	for i := 0; i < reps; i++ {
		var rr repResult
		var err error
		if w.Scenario == "" {
			rr, _, _, err = checkRep(ctx, corpus, d, nil)
		} else {
			rr, _, err = servingRep(ctx, w, repSeed(seed, i), warmUp, d, nil)
		}
		if err != nil {
			return out, fmt.Errorf("%s rep %d: %w", w.Name, i, err)
		}
		out.Attempted += rr.attempted
		out.Failed += rr.failed
		for _, p := range rr.problems {
			out.Problems = append(out.Problems, fmt.Sprintf("rep %d: %s", i, p))
		}
		for name, v := range rr.values {
			values[name] = append(values[name], v)
		}
	}
	for _, m := range endToEnd {
		if v, ok := values[m.Name]; ok {
			out.Metrics[m.Name] = newStat(m.Unit, v)
		}
	}
	out.Correct = len(out.Problems) == 0
	return out, nil
}
