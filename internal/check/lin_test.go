package check

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"github.com/paper-repro/ccbm/internal/adt"
	"github.com/paper-repro/ccbm/internal/history"
	"github.com/paper-repro/ccbm/internal/porder"
	"github.com/paper-repro/ccbm/internal/spec"
	"github.com/paper-repro/ccbm/internal/xhash"
)

// scanFindLin is findLin with the plain candidate scan rec used before
// blocked descendants were skipped: every unplaced event of include is
// tested against its predecessors at every node. It shares the
// searcher's memo, step cache and budget, so it must agree with findLin
// on the verdict, the witness and the nodes spent.
func scanFindLin(ls *linSearcher, include, visible porder.Bitset, preds []porder.Bitset) ([]int, bool) {
	ls.memo.reset()
	ls.include, ls.visible, ls.preds = include, visible, preds
	ls.total = include.Count()
	ls.done = porder.NewBitset(len(ls.events))
	ls.seq = ls.seq[:0]
	if scanRec(ls, ls.initState(), 0) {
		return slices.Clone(ls.seq), true
	}
	return nil, false
}

func scanRec(ls *linSearcher, q spec.State, placed int) bool {
	if placed == ls.total {
		return true
	}
	*ls.budget--
	if *ls.budget < 0 {
		return false
	}
	qh := q.Hash64()
	key := xhash.Mix(ls.done.Hash64(), qh)
	if _, failed := ls.memo.get(key); failed {
		return false
	}
	for wi, w := range ls.include {
		for w &^= ls.done[wi]; w != 0; w &= w - 1 {
			e := wi*64 + bits.TrailingZeros64(w)
			if !ls.preds[e].SubsetOfWithin(ls.done, ls.include) {
				continue
			}
			q2, out := ls.step(q, qh, e)
			if ls.visible.Has(e) && !ls.events[e].Op.Hidden && !out.Equal(ls.events[e].Op.Out) {
				continue
			}
			ls.done.Set(e)
			ls.seq = append(ls.seq, e)
			if scanRec(ls, q2, placed+1) {
				return true
			}
			ls.seq = ls.seq[:len(ls.seq)-1]
			ls.done.Clear(e)
		}
	}
	if *ls.budget >= 0 {
		ls.memo.put(key, struct{}{})
	}
	return false
}

// randomLinQuery builds n Counter events over procs processes plus
// some events outside every process, with a random predecessor DAG:
// program order within each process plus cross edges drawn along a
// random topological order, so edges run both up and down the id
// order. Half the DAGs are transitively closed (as causal pasts are),
// half are not.
func randomLinQuery(rng *rand.Rand, n, procs int) ([]history.Event, []porder.Bitset) {
	topo := rng.Perm(n)
	events := make([]history.Event, n)
	last := make([]int, procs)
	for i := range last {
		last[i] = -1
	}
	preds := make([]porder.Bitset, n)
	for i := range preds {
		preds[i] = porder.NewBitset(n)
	}
	for r, e := range topo {
		p := rng.Intn(procs+1) - 1
		var op spec.Operation
		switch k := rng.Intn(4); {
		case k < 2:
			op = spec.NewOp(spec.NewInput("inc", 1+rng.Intn(2)), spec.Bot)
		case k == 2:
			op = spec.NewOp(spec.NewInput("dec", 1), spec.Bot)
		default:
			op = spec.NewOp(spec.NewInput("get"), spec.IntOutput(rng.Intn(5)-1))
		}
		events[e] = history.Event{ID: e, Proc: p, Op: op}
		if p >= 0 {
			if last[p] >= 0 {
				preds[e].Set(last[p])
			}
			last[p] = e
		}
		for _, f := range topo[:r] {
			if rng.Intn(8) == 0 {
				preds[e].Set(f)
			}
		}
	}
	if rng.Intn(2) == 0 {
		for _, e := range topo {
			for _, f := range topo {
				if preds[e].Has(f) {
					preds[e].UnionWith(preds[f])
				}
			}
		}
	}
	return events, preds
}

// TestLinSkipMatchesScan: skipping the descendants of visited events
// must not change the linearization search at all — same verdict, same
// witness, same nodes spent — on random predecessor DAGs, including
// cross-process edges, events outside every process and histories
// wider than one bitset word. Several queries run on one searcher so
// the per-query rebuild of the descendant rows is exercised too.
func TestLinSkipMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const budget = 5000
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(20)
		if trial%10 == 0 {
			n = 65 + rng.Intn(70)
		}
		events, preds := randomLinQuery(rng, n, 1+rng.Intn(4))
		var b1, b2 int
		skip := &linSearcher{t: adt.Counter{}, events: events, budget: &b1, steps: &fpTable[stepVal]{}}
		scan := &linSearcher{t: adt.Counter{}, events: events, budget: &b2, steps: &fpTable[stepVal]{}}
		for query := 0; query < 3; query++ {
			include, visible := porder.NewBitset(n), porder.NewBitset(n)
			for e := 0; e < n; e++ {
				if n <= 24 || rng.Intn(n) < 24 {
					include.Set(e)
				}
				if rng.Intn(3) == 0 {
					visible.Set(e)
				}
			}
			b1, b2 = budget, budget
			got, ok1 := skip.findLin(include, visible, preds)
			want, ok2 := scanFindLin(scan, include, visible, preds)
			if ok1 != ok2 || !slices.Equal(got, want) || b1 != b2 {
				t.Fatalf("trial %d query %d (n=%d): skip gave ok=%v %v in %d nodes, scan gave ok=%v %v in %d nodes",
					trial, query, n, ok1, got, budget-b1, ok2, want, budget-b2)
			}
		}
	}
}
