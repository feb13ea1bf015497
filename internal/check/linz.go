package check

import (
	"context"
	"fmt"
	"sort"

	"github.com/paper-repro/ccbm/internal/history"
	"github.com/paper-repro/ccbm/internal/porder"
	"github.com/paper-repro/ccbm/internal/spec"
)

// This file adds the one strong criterion the paper discusses but does
// not define formally: linearizability [13]. Unlike every criterion in
// the rest of this package, linearizability is not a predicate on
// (Σ, E, Λ, 7→) histories — it constrains *real time*, which Def. 4
// deliberately omits ("our model does not introduce any notion of real
// time", Sec. 2.2). It therefore gets its own input type: operations
// with invocation/response intervals. It is included as the reference
// point above sequential consistency in Fig. 1's hierarchy, and to
// reproduce the classic separation of Attiya & Welch [3]: histories
// that are sequentially consistent but not linearizable.

// TimedOp is one completed method execution with its real-time
// interval. Inv must be strictly smaller than Res; operations of one
// process must not overlap each other.
type TimedOp struct {
	Proc int
	Op   spec.Operation
	Inv  float64 // invocation time
	Res  float64 // response time
}

// String renders the op with its interval.
func (o TimedOp) String() string {
	return fmt.Sprintf("p%d:%s@[%g,%g]", o.Proc, o.Op, o.Inv, o.Res)
}

// validateTimed checks interval sanity and per-process sequentiality.
func validateTimed(ops []TimedOp) error {
	byProc := make(map[int][]TimedOp)
	for _, o := range ops {
		if o.Inv >= o.Res {
			return fmt.Errorf("check: %v: invocation must precede response", o)
		}
		byProc[o.Proc] = append(byProc[o.Proc], o)
	}
	for p, po := range byProc {
		sort.Slice(po, func(i, j int) bool { return po[i].Inv < po[j].Inv })
		for i := 1; i < len(po); i++ {
			if po[i].Inv < po[i-1].Res {
				return fmt.Errorf("check: process %d overlaps its own operations %v and %v", p, po[i-1], po[i])
			}
		}
	}
	return nil
}

// Linearizable reports whether the timed history is linearizable with
// respect to t: there is a total order of the operations, admissible
// for t, that extends the real-time precedence relation (o1 precedes
// o2 when o1.Res < o2.Inv). On success the returned witness gives the
// linearization as indices into ops.
//
// The search reuses the package's memoized linearization engine; the
// real-time precedence of an interval order plays the role the program
// order plays for sequential consistency. Hidden operations (pending
// invocations whose response was never observed can be modelled as
// hidden with Res = +Inf) are admitted like everywhere else in the
// package.
func Linearizable(ctx context.Context, t spec.ADT, ops []TimedOp, opt Options) (bool, []int, error) {
	if err := validateTimed(ops); err != nil {
		return false, nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return false, nil, err
	}
	n := len(ops)
	events := make([]history.Event, n)
	for i, o := range ops {
		events[i] = history.Event{ID: i, Proc: o.Proc, Op: o.Op}
	}
	preds := make([]porder.Bitset, n)
	for i := range ops {
		preds[i] = porder.NewBitset(n)
		for j := range ops {
			if ops[j].Res < ops[i].Inv {
				preds[i].Set(j)
			}
		}
	}
	run := newSearchRun(ctx, opt)
	defer run.record(opt)
	ls := &linSearcher{t: t, events: events, budget: &run.budget, feed: run.feed}
	order, ok := ls.findLin(porder.FullBitset(n), porder.FullBitset(n), preds)
	if err := run.err(); err != nil {
		return false, nil, err
	}
	if !ok {
		return false, nil, nil
	}
	return true, order, nil
}

// TimedToHistory forgets real time, keeping only the per-process
// program order — the projection under which linearizability questions
// become sequential-consistency questions. It is the bridge used by
// the differential tests: Linearizable(ops) always implies
// SC(TimedToHistory(ops)). Events are numbered by invocation time
// (ties keep their order in ops), so each process's program order is
// its ops by Inv; on monitor-shaped windows this numbering makes the
// pruned CCv and PC searches explore far fewer nodes than a
// process-major one (TestTimedToHistoryWindowNodes).
func TimedToHistory(t spec.ADT, ops []TimedOp) *history.History {
	idx := make([]int, len(ops))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return ops[idx[a]].Inv < ops[idx[b]].Inv })
	b := history.NewBuilder(t)
	for _, i := range idx {
		b.Append(ops[i].Proc, ops[i].Op)
	}
	return b.Build()
}
