package main

// check.windows: the paper's own workload and the online monitor's
// cost model. No cluster: a fixed corpus of histories goes through
// checker.Check with the monitor's settings (pruned, sequential).

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/paper-repro/ccbm/cc/bench"
	"github.com/paper-repro/ccbm/cc/checker"
	"github.com/paper-repro/ccbm/cc/histories"
	"github.com/paper-repro/ccbm/internal/paperfig"
)

// checkCase is one (criterion, history) pair with the verdict the
// paper's caption, or the construction of the history, fixes.
type checkCase struct {
	name      string // e.g. "fig3/3h/CC", "window/s4x40/CCv"
	criterion string
	h         *histories.History
	expect    bool
}

// window builds a monitor-window-shaped history: a causal counter over
// procs sessions and total operations, inc/get alternating, outputs
// computed from the round-robin interleaving, so the window is
// consistent and the searches complete. Copied from cmd/ccbench (a
// main package, so not importable); independent of any seed.
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

// corpus is every caption claim of Fig. 3 (3a–3i) plus CC and CCv on
// the window shapes the monitor checks at and above its default size.
func corpus() []checkCase {
	var cases []checkCase
	for _, f := range paperfig.Fig3() {
		omega, finite := f.History(), f.FiniteHistory()
		for _, cl := range f.Claims {
			h := finite
			if cl.OmegaReading {
				h = omega
			}
			crit := cl.Criterion.String()
			cases = append(cases, checkCase{name: "fig3/" + f.Name + "/" + crit, criterion: crit, h: h, expect: cl.Holds})
		}
	}
	for _, cfg := range []struct{ procs, total int }{{4, 40}, {6, 40}, {4, 48}} {
		h := window(cfg.procs, cfg.total)
		for _, crit := range []string{"CC", "CCv"} {
			cases = append(cases, checkCase{
				name: fmt.Sprintf("window/s%dx%d/%s", cfg.procs, cfg.total, crit), criterion: crit, h: h, expect: true,
			})
		}
	}
	return cases
}

// runCase is one checker.Check call with the monitor's settings.
func runCase(ctx context.Context, c checkCase) (*checker.Result, error) {
	res, err := checker.Check(ctx, c.criterion, c.h, checker.WithPruning(true), checker.WithParallelism(1))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.name, err)
	}
	return res, nil
}

// passCounts are the exact counters of one pass over the corpus.
type passCounts struct {
	nodes, canonHits, sleepSkips int64
	perCase                      map[string]int64 // nodes per case
}

// verifyPass checks every case once, untimed: a verdict that differs
// from its expected value is an error, and the pass's node counts are
// the workload's exact counters.
func verifyPass(ctx context.Context, cases []checkCase) (passCounts, error) {
	pc := passCounts{perCase: make(map[string]int64, len(cases))}
	for _, c := range cases {
		res, err := runCase(ctx, c)
		if err != nil {
			return pc, err
		}
		if res.Satisfied != c.expect {
			return pc, fmt.Errorf("%s: verdict %v, expected %v", c.name, res.Satisfied, c.expect)
		}
		pc.nodes += res.Explored
		pc.canonHits += res.Pruned.CanonHits
		pc.sleepSkips += res.Pruned.SleepSkips
		pc.perCase[c.name] = res.Explored
	}
	return pc, nil
}

// checkRep runs one repetition: set-up builds the corpus and verifies
// every verdict, then whole passes over the corpus are timed for d, one
// operation per checker.Check call. busy is the time inside the
// checker, by its own clock. With a tracer, each operation records an
// op span and the checker.check span inside it.
func checkRep(ctx context.Context, cases func() []checkCase, d time.Duration, t *tracer) (res repResult, pc passCounts, busy time.Duration, err error) {
	res.values = make(map[string]float64)
	setupStart := time.Now()
	cs := cases()
	if pc, err = verifyPass(ctx, cs); err != nil {
		return res, pc, 0, err
	}
	res.values["setup_s"] = time.Since(setupStart).Seconds()

	lat := bench.NewHistogram()
	var nodes int64
	passes := 0
	begin := time.Now()
	for time.Since(begin) < d {
		for _, c := range cs {
			opStart := time.Now()
			r, err := runCase(ctx, c)
			callEnd := time.Now()
			if err != nil {
				return res, pc, busy, err
			}
			lat.RecordDuration(callEnd.Sub(opStart))
			res.attempted++
			if r.Satisfied != c.expect {
				res.failed++
			}
			nodes += r.Explored
			busy += r.Elapsed
			if t != nil {
				op := span{Layer: layerOp, ID: t.next.Add(1), Start: int64(opStart.Sub(t.epoch))}
				call := span{Layer: layerChecker, ID: t.next.Add(1), Parents: []uint64{op.ID}, Start: op.Start, End: int64(callEnd.Sub(t.epoch))}
				op.End = t.now()
				t.record(call)
				t.record(op)
			}
		}
		passes++
	}
	elapsed := time.Since(begin)
	res.values["ops_per_s"] = float64(res.attempted) / elapsed.Seconds()
	res.values["error_share"] = float64(res.failed) / float64(res.attempted)
	res.setLatency(lat)
	res.values["nodes_per_pass"] = float64(nodes) / float64(passes)
	if res.failed > 0 {
		res.problemf("%d of %d verdicts differ from their expected value", res.failed, res.attempted)
	}
	if got := float64(pc.nodes); res.values["nodes_per_pass"] != got {
		res.problemf("nodes per pass %v in the timed passes, %v in the verification pass: the count must repeat exactly", res.values["nodes_per_pass"], got)
	}
	return res, pc, busy, nil
}
