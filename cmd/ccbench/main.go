// Command ccbench measures the exact consistency checkers over the
// paper's Fig. 1 / Fig. 3 fixtures and a synthetic large-window suite,
// and emits the result as JSON, so that the repository can keep a perf
// trajectory across changes in BENCH_checkers.json (see README.md for
// the workflow).
//
// Usage:
//
//	ccbench -label "my change"                 # print one run object
//	ccbench -label "my change" -append FILE   # append to a JSON array
//
// Each run records ns/op, B/op, allocs/op, explored search nodes and
// pruning counters per benchmark:
//
//	fig1/<criterion>        one full Check of the Fig. 3c history
//	fig3/<subfigure>        all caption claims of one Fig. 3 history
//	fig3/<subfigure>/pruned same claims with the DPOR-style pruners on
//	window/<spec>           CC+CCv on a synthetic monitor-window-shaped
//	                        history (causal counter, e.g. s4x40 = 4
//	                        sessions, 40 operations), plain and /pruned
//
// Before timing anything, every fig3 claim is checked pruned AND
// unpruned against the paper's caption verdict: a divergence aborts
// the run, so a bench record implies pruned/unpruned verdict equality
// on the whole Fig. 3 corpus. Node counts are deterministic, so the
// pruned/unpruned "nodes" ratio is a machine-independent measure of
// what pruning buys.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"github.com/paper-repro/ccbm/cc/checker"
	"github.com/paper-repro/ccbm/cc/histories"
	"github.com/paper-repro/ccbm/internal/benchrec"
	"github.com/paper-repro/ccbm/internal/paperfig"
)

// Result is one benchmark measurement. Nodes and the pruning counters
// come from a separate counted pass (they are deterministic per run
// configuration, not per-iteration averages).
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Nodes       int64   `json:"nodes,omitempty"`
	CanonHits   int64   `json:"canon_hits,omitempty"`
	SleepSkips  int64   `json:"sleep_skips,omitempty"`
	SymSkips    int64   `json:"sym_skips,omitempty"`
}

func measure(name string, f func(b *testing.B)) Result {
	r := testing.Benchmark(f)
	if r.N == 0 {
		// testing.Benchmark returns a zero result when the body calls
		// b.Fatal (e.g. a checker reports an error); dividing by N
		// would record NaN and the real failure would be lost.
		fmt.Fprintf(os.Stderr, "ccbench: benchmark %s failed (checker error?)\n", name)
		os.Exit(1)
	}
	return Result{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// check is one (criterion, history) pair a benchmark times; expect is
// the verdict the run asserts before any timing starts.
type check struct {
	criterion string
	h         *histories.History
	expect    bool
}

// countAndVerify runs every check once under opts, asserting verdicts
// and accumulating the deterministic node/pruning counters.
func countAndVerify(name string, checks []check, opts ...checker.Option) (nodes, canon, sleep, sym int64) {
	ctx := context.Background()
	for _, c := range checks {
		res, err := checker.Check(ctx, c.criterion, c.h, opts...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: %s: %s: %v\n", name, c.criterion, err)
			os.Exit(1)
		}
		if res.Satisfied != c.expect {
			fmt.Fprintf(os.Stderr, "ccbench: %s: %s verdict %v, want %v — pruned/unpruned runs disagree with the fixture\n",
				name, c.criterion, res.Satisfied, c.expect)
			os.Exit(1)
		}
		nodes += res.Explored
		canon += res.Pruned.CanonHits
		sleep += res.Pruned.SleepSkips
		sym += res.Pruned.SymSkips
	}
	return
}

// bench measures one named configuration: a counted verification pass
// first (verdicts + node counters), then the timing loop.
func bench(results map[string]Result, name string, checks []check, opts ...checker.Option) {
	nodes, canon, sleep, sym := countAndVerify(name, checks, opts...)
	ctx := context.Background()
	r := measure(name, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, c := range checks {
				if _, err := checker.Check(ctx, c.criterion, c.h, opts...); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	r.Nodes, r.CanonHits, r.SleepSkips, r.SymSkips = nodes, canon, sleep, sym
	results[name] = r
}

// claimChecks expands a Fig. 3 fixture's caption claims into checks.
func claimChecks(f paperfig.Fixture) []check {
	omega := f.History()
	finite := f.FiniteHistory()
	var out []check
	for _, cl := range f.Claims {
		h := finite
		if cl.OmegaReading {
			h = omega
		}
		out = append(out, check{criterion: cl.Criterion.String(), h: h, expect: cl.Holds})
	}
	return out
}

// window builds a deterministic monitor-window-shaped history: a
// causal counter over procs sessions and total operations, inc/get
// alternating, outputs computed from the round-robin interleaving (so
// the window is consistent and the searches complete — the shape the
// online monitor checks at its default WindowOps).
func window(procs, total int) *histories.History {
	lines := make([][]string, procs)
	count := 0
	for i := 0; i < total; i++ {
		p := i % procs
		if i%2 == 0 {
			lines[p] = append(lines[p], "inc")
			count++
		} else {
			lines[p] = append(lines[p], fmt.Sprintf("get/%d", count))
		}
	}
	var sb strings.Builder
	sb.WriteString("adt: Counter\n")
	for p := 0; p < procs; p++ {
		fmt.Fprintf(&sb, "p%d: %s\n", p, strings.Join(lines[p], " "))
	}
	return histories.MustParse(sb.String())
}

func main() {
	label := flag.String("label", "", "label recorded with the run")
	appendTo := flag.String("append", "", "append the run to this JSON-array file")
	flag.Parse()

	results := make(map[string]Result)
	run := benchrec.New(*label, results)
	run.Procs = runtime.GOMAXPROCS(0)
	run.Cores = runtime.NumCPU()

	// variants records a configuration plain and pruned.
	variants := func(name string, checks []check) {
		bench(results, name, checks)
		bench(results, name+"/pruned", checks, checker.WithPruning(true))
	}

	// fig1: every criterion of the hierarchy against the Fig. 3c
	// history (mirrors BenchmarkFig1HierarchyCheck). Verdicts per the
	// caption: 3c is CC (hence WCC, PC, EC, UC) but not CCv or SC.
	f3c, ok := paperfig.Fig3ByName("3c")
	if !ok {
		fmt.Fprintln(os.Stderr, "ccbench: fixture 3c missing from paperfig.Fig3")
		os.Exit(1)
	}
	h3c := f3c.History()
	expect3c := map[string]bool{"EC": true, "UC": true, "PC": true, "WCC": true, "CCv": false, "CC": true, "SC": false}
	for _, c := range []string{"EC", "UC", "PC", "WCC", "CCv", "CC", "SC"} {
		checks := []check{{criterion: c, h: h3c, expect: expect3c[c]}}
		bench(results, "fig1/"+c, checks)
	}

	// fig3: every caption claim of every sub-figure (mirrors
	// BenchmarkFig3Classify), plain and pruned — the pruned/unpruned
	// node ratios here are the repo's record of what the pruning layer
	// buys on the paper's corpus.
	for _, f := range paperfig.Fig3() {
		variants("fig3/"+f.Name, claimChecks(f))
	}

	// window: synthetic monitor-window-shaped histories at and above
	// the monitor's default WindowOps, CC and CCv (the criteria served
	// clusters claim). s4x40 is the shape an online window at the
	// default size takes with four active sessions.
	for _, cfg := range []struct{ procs, total int }{{4, 40}, {6, 40}, {4, 48}} {
		h := window(cfg.procs, cfg.total)
		checks := []check{
			{criterion: "CC", h: h, expect: true},
			{criterion: "CCv", h: h, expect: true},
		}
		variants(fmt.Sprintf("window/s%dx%d", cfg.procs, cfg.total), checks)
	}

	if *appendTo == "" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(run); err != nil {
			fmt.Fprintln(os.Stderr, "ccbench:", err)
			os.Exit(1)
		}
		return
	}

	n, err := benchrec.Append(*appendTo, run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccbench:", err)
		os.Exit(1)
	}
	fmt.Printf("ccbench: appended %q to %s (%d runs)\n", *label, *appendTo, n)
}
