package check

import (
	"context"

	"github.com/paper-repro/ccbm/internal/history"
	"github.com/paper-repro/ccbm/internal/porder"
)

// The causal-family checkers (WCC, CC, CCv) share one search skeleton,
// the exploration engine of explore.go.
//
// A causal order → is searched as follows: events are "committed" one
// at a time in a dynamically chosen order; when an event e is
// committed, the search picks the set of extra updates X_e (among
// already-committed updates) that e observes beyond what is forced by
// program order and transitivity. The causal order is the transitive
// closure of the program order plus the visibility edges {(u, e) : u ∈
// X_e}; because every edge points into the event being committed, the
// causal past ⌊e⌋ of a committed event never changes afterwards, so the
// per-event admissibility requirement of each criterion can be checked
// immediately and the search prunes early.
//
// Completeness: if a valid causal order →₀ (with per-event
// linearizations) exists, committing events along any linear extension
// of →₀ with X_e := (⌊e⌋₀ ∩ updates) reproduces exactly the update
// content of every causal past, while our → ⊆ →₀ imposes no more
// ordering than →₀ did, so every original per-event linearization
// remains available. Soundness: the constructed → is a partial order
// containing program order by construction, and the committed
// constraints are precisely the definitions' requirements.
//
// ω-events (repeating pure queries standing for infinite suffixes,
// Def. 7's cofiniteness) must observe every update: they can only be
// committed once all updates are committed, and their visibility set is
// forced to include all of them.
//
// This file holds the criterion layer: which per-event admissibility
// check each kind runs (checkEvent), and the WCC/CC/CCv entry points.
// The engine (frame loop, frontier and visibility enumeration, memo,
// slab allocation) lives in explore.go, the optional pruning layer in
// prune.go.

// causalKind selects which criterion the shared search decides.
type causalKind int

const (
	kindWCC causalKind = iota
	kindCC
	kindCCv
)

// checkEvent verifies the criterion's per-event requirement for e with
// causal past `past` (not containing e), returning a witness
// linearization. The witness lives in fr.lin (per-depth scratch); it
// is only cloned if the whole search succeeds.
func (cs *causalSearcher) checkEvent(e int, past porder.Bitset, fr *csFrame) ([]int, bool) {
	if cs.kind == kindCCv {
		// The linearization is forced: ⌊e⌋ sorted by the shared total
		// order ≤, which is the commit order, then e (Def. 12). Only
		// e's own output is visible (π(⌊e⌋, {e}), Def. 12), so the
		// replay checks nothing until the final step.
		q := cs.ls.initState()
		lin := fr.lin[:0]
		for _, f := range cs.order {
			if !past.Has(f) {
				continue
			}
			q, _ = cs.ls.step(q, q.Hash64(), f)
			lin = append(lin, f)
		}
		_, out := cs.ls.step(q, q.Hash64(), e)
		if !cs.h.Events[e].Op.Hidden && !out.Equal(cs.h.Events[e].Op.Out) {
			return nil, false
		}
		lin = append(lin, e)
		fr.lin = lin
		return lin, true
	}

	// WCC/CC: search for a linearization of ⌊e⌋ ∪ {e} respecting the
	// constructed causal order (pasts of committed events are final).
	include := cs.include
	include.CopyFrom(past)
	include.Set(e)
	visible := cs.visible
	if cs.kind == kindCC {
		// π(⌊e⌋, p): outputs of e's process are visible (Def. 9).
		// Events outside every process (Proc < 0, possible in general
		// partial orders) have no process outputs to reproduce.
		if p := cs.h.Events[e].Proc; p >= 0 {
			visible.CopyFrom(cs.h.ProcEventsView(p))
			visible.IntersectWith(include)
		} else {
			visible.ClearAll()
		}
	} else {
		// π(⌊e⌋, {e}): only e's own output is visible (Def. 8).
		visible.ClearAll()
		visible.Set(e)
	}
	lin, ok := cs.ls.findLinInto(fr.lin, include, visible, cs.pasts)
	if ok {
		fr.lin = lin
	}
	return lin, ok
}

func runCausal(ctx context.Context, h *history.History, kind causalKind, opt Options) (bool, *Witness, error) {
	if err := validateOmega(h); err != nil {
		return false, nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return false, nil, err
	}
	cs := newCausalSearcher(h, kind, opt.maxNodes(), opt.Prune)
	if opt.Stats != nil {
		defer func() {
			opt.Stats.Nodes += cs.explored(opt.maxNodes())
			opt.Stats.Prune.Add(cs.pruneStats())
		}()
	}
	if ctx != nil && ctx.Done() != nil {
		// Feed the budget in chunks so the searcher polls ctx.Err() at
		// least every feederChunk nodes. The node count at which the
		// budget runs out is unchanged (the feeder hands out exactly
		// maxNodes in total).
		cs.feed = newFeeder(ctx, opt.maxNodes(), cs.budget)
		cs.ls.feed = cs.feed
		cs.budgetVal = 0
	}
	ok := cs.run()
	if cs.feed.wasInterrupted() {
		return false, nil, ctx.Err()
	}
	if cs.budgetVal < 0 {
		return false, nil, ErrBudget
	}
	if !ok {
		return false, nil, nil
	}
	return true, cs.witness(), nil
}

// WCC reports whether the history is weakly causally consistent with
// its ADT (Def. 8): there is a causal order → such that every event's
// output is explained by some linearization of its causal past with all
// other outputs hidden.
func WCC(ctx context.Context, h *history.History, opt Options) (bool, *Witness, error) {
	return runCausal(ctx, h, kindWCC, opt)
}

// CC reports whether the history is causally consistent with its ADT
// (Def. 9): there is a causal order → such that every event's causal
// past has a linearization that additionally reproduces the outputs of
// the event's own process.
func CC(ctx context.Context, h *history.History, opt Options) (bool, *Witness, error) {
	return runCausal(ctx, h, kindCC, opt)
}

// CCv reports whether the history is causally convergent with its ADT
// (Def. 12): there are a causal order → and a total order ≤ ⊇ → such
// that each event is explained by its causal past linearized in the
// shared order ≤.
func CCv(ctx context.Context, h *history.History, opt Options) (bool, *Witness, error) {
	return runCausal(ctx, h, kindCCv, opt)
}
