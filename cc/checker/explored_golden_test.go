package checker_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/paper-repro/ccbm/cc/checker"
	"github.com/paper-repro/ccbm/cc/histories"
	"github.com/paper-repro/ccbm/internal/paperfig"
)

// counterWindow builds a monitor-window-shaped history: a causal
// counter over procs sessions and total operations, inc/get
// alternating, outputs taken from the round-robin interleaving, so the
// window is consistent. It is the window shape of cmd/ccbench and of
// the check.windows benchmark workload.
func counterWindow(procs, total int) *histories.History {
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

// TestExploredGolden pins the exact node count of every search in the
// check.windows corpus — each Fig. 3 caption claim, plus CC and CCv on
// three counter windows — under the monitor's settings (pruned,
// sequential). The count is a pure function of the search order, memo
// semantics and budget charging, so a change to the search's data
// structures that keeps those must keep every number here; a memo that
// leaked entries between linearization queries, or lost them within
// one, shows up as a changed count even when every verdict survives.
func TestExploredGolden(t *testing.T) {
	want := map[string]int64{
		"fig3/3h/CC":      16830,
		"fig3/3i/CC":      21302,
		"window/s4x40/CC": 10333, "window/s4x40/CCv": 134,
		"window/s6x40/CC": 35670, "window/s6x40/CCv": 200,
		"window/s4x48/CC": 20220, "window/s4x48/CCv": 161,
	}
	const wantTotal = 105462

	ctx := context.Background()
	var total int64
	check := func(name, criterion string, h *histories.History, expect bool) {
		t.Helper()
		res, err := checker.Check(ctx, criterion, h, checker.WithPruning(true))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Satisfied != expect {
			t.Errorf("%s: verdict %v, want %v", name, res.Satisfied, expect)
		}
		total += res.Explored
		if w, ok := want[name]; ok && res.Explored != w {
			t.Errorf("%s: explored %d nodes, want %d", name, res.Explored, w)
		}
	}
	for _, f := range paperfig.Fig3() {
		omega, finite := f.History(), f.FiniteHistory()
		for _, cl := range f.Claims {
			h := finite
			if cl.OmegaReading {
				h = omega
			}
			crit := cl.Criterion.String()
			check("fig3/"+f.Name+"/"+crit, crit, h, cl.Holds)
		}
	}
	for _, w := range []struct{ procs, total int }{{4, 40}, {6, 40}, {4, 48}} {
		h := counterWindow(w.procs, w.total)
		for _, crit := range []string{"CC", "CCv"} {
			check(fmt.Sprintf("window/s%dx%d/%s", w.procs, w.total, crit), crit, h, true)
		}
	}
	if total != wantTotal {
		t.Errorf("corpus explored %d nodes in total, want %d", total, wantTotal)
	}
}

// TestWindow2Sess40 checks a real 40-op write.http monitor window
// (testdata/histories/window-2sess-40.txt) under CC and CCv, pruned
// and unpruned, within a 10⁶-node budget. Its commits see long chains
// of candidate updates; enumerating every visibility subset instead
// of one per distinct past exhausts the budget in all four searches.
func TestWindow2Sess40(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "histories", "window-2sess-40.txt"))
	if err != nil {
		t.Fatal(err)
	}
	h, err := histories.Parse(string(data))
	if err != nil {
		t.Fatal(err)
	}
	for _, crit := range []string{"CC", "CCv"} {
		for _, pruned := range []bool{true, false} {
			res, err := checker.Check(context.Background(), crit, h,
				checker.WithBudget(1_000_000), checker.WithPruning(pruned))
			if err != nil || !res.Satisfied {
				t.Errorf("%s pruned=%v: satisfied=%v exhausted=%q err=%v after %d nodes",
					crit, pruned, res.Satisfied, res.Exhausted, err, res.Explored)
				continue
			}
			t.Logf("%s pruned=%v: %d nodes", crit, pruned, res.Explored)
		}
	}
}

// TestAntichainChainFamily: p0 performs k increments, a chain in
// program order, and p1 reads k+1, which no criterion can explain.
// Every commit of the read has the increments committed so far as
// candidates, and those candidates form a chain, so they give only
// j+1 distinct pasts, not 2^j. Each search must be decided within
// c·k² nodes; a walk over all 2^k visibility subsets cannot finish
// at k = 32.
func TestAntichainChainFamily(t *testing.T) {
	const c = 16
	for k := 4; k <= 32; k++ {
		h := histories.MustParse(fmt.Sprintf("adt: Counter\np0:%s\np1: get/%d\n",
			strings.Repeat(" inc", k), k+1))
		for _, crit := range []string{"WCC", "CC", "CCv"} {
			for _, pruned := range []bool{true, false} {
				res, err := checker.Check(context.Background(), crit, h,
					checker.WithBudget(c*k*k), checker.WithPruning(pruned))
				if err != nil || res.Satisfied {
					t.Errorf("k=%d %s pruned=%v: satisfied=%v exhausted=%q err=%v after %d nodes, want unsatisfied within %d",
						k, crit, pruned, res.Satisfied, res.Exhausted, err, res.Explored, c*k*k)
				}
			}
		}
	}
}
