// Package check implements exact decision procedures for the paper's
// consistency criteria: sequential consistency (Def. 5), pipelined
// consistency (Def. 6), weak causal consistency (Def. 8), causal
// consistency (Def. 9), causal convergence (Def. 12), causal memory
// via writes-into orders (Def. 11), eventual/update consistency, and
// Terry's four session guarantees.
//
// The checkers are sound and complete with respect to the formal
// definitions on finite histories, with the ω-event convention of the
// history package standing in for infinite executions (see that
// package's documentation). All are exponential-time searches — the
// underlying problems generalize the NP-hard verification of sequential
// consistency — so they are intended for the small histories of the
// paper's figures and for runtime-produced histories of bounded size.
//
// Because the searches are exponential, per-node constant factors
// decide how large a history is checkable in practice. The search core
// is therefore written to be allocation-free in steady state: memo
// tables are keyed by 64-bit fingerprints (porder.Bitset.Hash64,
// spec.State.Hash64) rather than built strings, scratch bitsets are
// reused across nodes, and subset enumeration is lazy. The per-event
// linearization search — the innermost and most-visited level — keeps
// its failed-state memo and transition cache in flat open-addressing
// tables (fptable.go) instead of Go maps; the memo is private to one
// query and emptied in O(1) when the next query starts. Each node walks
// a per-depth copy of the unplaced events, and every event it visits
// strikes its descendants (the transposed predecessor rows, built once
// per query) from that copy, so an event blocked by an earlier-visited
// one is never tested at all.
// Fingerprint memoization is probabilistic — a 64-bit collision could
// in principle prune a live branch — but over the ≤ DefaultMaxNodes
// states a search can visit, the collision probability is ~10⁻¹²,
// far below the chance of a hardware fault, and the census and
// differential tests cross-check the checkers against each other.
//
// # The layered exploration engine
//
// The causal-family checkers (WCC, CC, CCv) share one engine, split
// into layers:
//
//   - causal.go — the criterion layer: which visibility choices are
//     admissible for a commit under each definition, and the extra
//     total-order obligations CCv carries. The only layer that can
//     tell the three criteria apart.
//   - explore.go — the search core: frontier enumeration over the
//     program order, visibility-choice enumeration, incremental
//     fingerprints, commit memoization, per-depth scratch frames.
//   - prune.go — the pruning layer: DPOR-style reduction behind the
//     pruner interface, selected by Options.Prune. Three pruners —
//     canonical frame fingerprints, sleep-set exclusion of adjacent
//     commuting commits, and a symmetry quotient over
//     identical-program sessions. Verdict-preserving by construction;
//     see prune.go for each pruner's soundness conditions (notably:
//     the CCv canonical key must keep the update suborder, and the
//     symmetry quotient disables itself off chain-shaped program
//     orders).
//
// The non-causal checkers (SC, PC, EC/UC, CM, the session guarantees)
// predate the engine and keep their own specialized searches.
package check

import (
	"context"
	"errors"
	"math/bits"

	"github.com/paper-repro/ccbm/internal/history"
	"github.com/paper-repro/ccbm/internal/porder"
	"github.com/paper-repro/ccbm/internal/spec"
	"github.com/paper-repro/ccbm/internal/xhash"
)

// ErrBudget is returned when a search exceeds Options.MaxNodes.
var ErrBudget = errors.New("check: search budget exceeded")

// ErrOmegaUpdate is returned when a history marks an update operation
// as ω-repeating; the encoding only supports repeating pure queries.
var ErrOmegaUpdate = errors.New("check: ω-events must be pure queries")

// Options tunes the search procedures. Cancellation and deadlines are
// not options: every search-based checker takes a context.Context and
// polls ctx.Err() at least every feederChunk explored nodes, unwinding
// promptly with the context's error.
type Options struct {
	// MaxNodes bounds the total number of search-tree nodes explored by
	// one checker invocation; 0 means DefaultMaxNodes.
	MaxNodes int

	// Prune selects the DPOR-style pruners the causal-family checkers
	// apply (see the Prune type); the zero value is the exhaustive,
	// unpruned search. Verdicts are identical either way; witnesses
	// are bit-identical unless Prune.Symmetry applies to the history.
	// The non-causal checkers ignore the field.
	Prune Prune

	// Stats, when non-nil, accumulates search statistics across the
	// checker invocations that receive this Options value. It must not
	// be shared between concurrent invocations (the batch engine
	// installs a private one per check).
	Stats *Stats
}

// Stats counts the work checker invocations performed.
type Stats struct {
	// Nodes is the number of search-tree nodes explored.
	Nodes int64

	// Prune counts the frames and branches each enabled pruner cut
	// (all zero when Options.Prune enables nothing).
	Prune PruneStats
}

// DefaultMaxNodes is the default search budget.
const DefaultMaxNodes = 20_000_000

func (o Options) maxNodes() int {
	if o.MaxNodes <= 0 {
		return DefaultMaxNodes
	}
	return o.MaxNodes
}

// linSearcher finds a linearization of a subset of a history's events,
// conforming to the ADT's sequential specification, where only some
// events' outputs are visible (the others are hidden operations in the
// sense of Def. 2). It implements lin(H'.π(E', E”)) ∩ L(T) ≠ ∅
// queries, the building block of every criterion.
//
// One linSearcher may serve many queries (the causal checkers issue
// one per candidate commit): all scratch state is reused across
// queries, and the failed-state memo is reset at the start of each
// one, so it only ever holds the current query's dead ends.
type linSearcher struct {
	t      spec.ADT
	events []history.Event
	budget *int
	// feed, when non-nil, tops the budget back up in chunks while the
	// caller's context is live (see budget.go); a nil feed leaves the
	// classic "count down from MaxNodes" behaviour untouched.
	feed *feeder
	memo fpTable[struct{}] // failed (done, state) fingerprints of the current query

	// q0 caches t.Init() (states are immutable, so one instance serves
	// every query). steps, when non-nil, memoizes δ/λ by the mixed
	// (state fingerprint, event) key: the causal checkers issue one
	// query per candidate commit and revisit the same few states
	// constantly, so a cached transition (a table probe) beats
	// rebuilding an immutable state; single-query searchers (SC, PC,
	// UC, CM, linearizability) leave it nil and call Step directly, as
	// most transitions are visited once. Both caches are
	// query-independent and live for the searcher's lifetime.
	q0    spec.State
	steps *fpTable[stepVal]

	// Query context, fixed for the duration of one findLin call.
	include porder.Bitset
	visible porder.Bitset
	preds   []porder.Bitset
	total   int

	// Scratch reused across queries. desc and todo are flat slabs of
	// rows as wide as include: desc has one row per event, desc[f]
	// being the events of include that have f as a predecessor (rebuilt
	// by every query), and todo one row per depth, the candidates rec
	// has yet to visit there.
	done       porder.Bitset
	desc, todo porder.Bitset
	seq        []int
}

type stepVal struct {
	q   spec.State
	out spec.Output
}

// step applies event e's input to state q (with fingerprint qh),
// memoized. Like the fingerprint memo tables, it trusts Hash64 to
// identify states.
func (ls *linSearcher) step(q spec.State, qh uint64, e int) (spec.State, spec.Output) {
	if ls.steps == nil {
		return ls.t.Step(q, ls.events[e].Op.In)
	}
	k := xhash.Mix(qh, uint64(e))
	sv, ok := ls.steps.get(k)
	if !ok {
		sv.q, sv.out = ls.t.Step(q, ls.events[e].Op.In)
		ls.steps.put(k, sv)
	}
	return sv.q, sv.out
}

// initState returns the cached initial state.
func (ls *linSearcher) initState() spec.State {
	if ls.q0 == nil {
		ls.q0 = ls.t.Init()
	}
	return ls.q0
}

// searchRun couples one checker invocation's budget countdown with the
// optional context-cancellation feeder and the explored-node tally.
// When ctx is cancellable the budget is fed in chunks so the search
// polls ctx.Err() at least every feederChunk nodes; an uncancellable
// context (context.Background(), context.TODO(), nil) keeps the
// classic zero-overhead "count down from MaxNodes" behaviour, so the
// hot path pays nothing for the plumbing.
type searchRun struct {
	ctx     context.Context
	initial int
	budget  int
	feed    *feeder
}

func newSearchRun(ctx context.Context, opt Options) *searchRun {
	r := &searchRun{ctx: ctx, initial: opt.maxNodes()}
	if ctx != nil && ctx.Done() != nil {
		r.feed = newFeeder(ctx, r.initial, &r.budget)
	} else {
		r.budget = r.initial
	}
	return r
}

// explored returns the number of search nodes consumed so far.
func (r *searchRun) explored() int64 {
	return spentNodes(r.initial, r.feed, r.budget)
}

// record adds the run's work to the caller's stats, if requested.
func (r *searchRun) record(opt Options) {
	if opt.Stats != nil {
		opt.Stats.Nodes += r.explored()
	}
}

// err translates the run's terminal state into the checker error: the
// context's error if the search was interrupted, ErrBudget if the node
// budget ran out, nil otherwise.
func (r *searchRun) err() error {
	if r.feed.wasInterrupted() {
		return r.ctx.Err()
	}
	if r.budget < 0 {
		return ErrBudget
	}
	return nil
}

// ctxErr is a nil-safe ctx.Err(), for the entry check every checker
// performs so a pre-cancelled context returns before any search work.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// findLin searches for an order of the events in include, respecting
// preds (required strict predecessors per event, one materialized
// bitset per event; only members of include constrain), such that
// running the operations from the initial state matches the recorded
// output of every event in visible. It returns the witness order and
// whether one exists. If the budget runs out it returns found=false
// with *budget < 0; callers translate that into ErrBudget.
func (ls *linSearcher) findLin(include, visible porder.Bitset, preds []porder.Bitset) ([]int, bool) {
	return ls.findLinInto(nil, include, visible, preds)
}

// findLinInto is findLin with a caller-provided witness buffer: on
// success the witness overwrites dst[:0] (growing it as needed) — the
// causal checkers pass per-depth scratch so that successful per-event
// queries allocate nothing in steady state.
func (ls *linSearcher) findLinInto(dst []int, include, visible porder.Bitset, preds []porder.Bitset) ([]int, bool) {
	n := len(ls.events)
	ls.memo.reset()
	ls.include, ls.visible, ls.preds = include, visible, preds
	ls.total = include.Count()
	words := len(include)
	if len(ls.desc) < n*words {
		// A searcher whose owner cut no scratch rows gets them in one
		// allocation on its first query.
		slab := make(porder.Bitset, (2*n+1)*words)
		ls.done, ls.desc, ls.todo = slab[:words], slab[words:(n+1)*words], slab[(n+1)*words:]
	} else {
		ls.done.ClearAll()
	}
	// desc = the transpose of preds ∩ include, over the rows from
	// include's first event to its last.
	lo, hi := n, 0
	for wi, w := range include {
		if w != 0 {
			lo = min(lo, wi*64+bits.TrailingZeros64(w))
			hi = wi*64 + 63 - bits.LeadingZeros64(w)
		}
	}
	if lo <= hi {
		clear(ls.desc[lo*words : (hi+1)*words])
	}
	desc := ls.desc
	for wi, w := range include {
		for ; w != 0; w &= w - 1 {
			e := wi*64 + bits.TrailingZeros64(w)
			bit := uint64(1) << (uint(e) % 64)
			p := preds[e]
			for pi := range min(len(p), words) {
				for pw := p[pi] & include[pi]; pw != 0; pw &= pw - 1 {
					desc[(pi*64+bits.TrailingZeros64(pw))*words+wi] |= bit
				}
			}
		}
	}
	ls.seq = ls.seq[:0]
	if ls.rec(ls.initState(), 0) {
		return append(dst[:0], ls.seq...), true
	}
	return nil, false
}

// rec extends the partial linearization by one event and recurses.
// Within one call done is the same at every candidate (each failed
// branch undoes its own changes), so the candidates are the depth's
// todo row, include &^ done, walked in id order. A visited event stays
// unplaced at this node whether or not it is tried, so none of its
// descendants can be ready here: visiting e strikes desc[e] from the
// row, and those events are skipped without a predecessor test they
// would have failed. The order in which candidates are tried is that
// of the plain scan.
func (ls *linSearcher) rec(q spec.State, placed int) bool {
	if placed == ls.total {
		return true
	}
	*ls.budget--
	if *ls.budget < 0 && !ls.feed.refill() {
		return false
	}
	qh := q.Hash64()
	key := xhash.Mix(ls.done.Hash64(), qh)
	if _, failed := ls.memo.get(key); failed {
		return false
	}
	words := len(ls.include)
	todo := ls.todo[placed*words : (placed+1)*words]
	for wi := range todo {
		todo[wi] = ls.include[wi] &^ ls.done[wi]
	}
	for wi := range todo {
		for todo[wi] != 0 {
			e := wi*64 + bits.TrailingZeros64(todo[wi])
			todo[wi] &= todo[wi] - 1
			for j, d := range ls.desc[e*words+wi : (e+1)*words] {
				todo[wi+j] &^= d
			}
			if !ls.preds[e].SubsetOfWithin(ls.done, ls.include) {
				continue
			}
			q2, out := ls.step(q, qh, e)
			// Hidden operations (Def. 2) have no recorded output to
			// match, whatever the visibility projection says.
			if ls.visible.Has(e) && !ls.events[e].Op.Hidden && !out.Equal(ls.events[e].Op.Out) {
				continue
			}
			ls.done.Set(e)
			ls.seq = append(ls.seq, e)
			if ls.rec(q2, placed+1) {
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

// validateOmega returns ErrOmegaUpdate if any ω-event is an update.
func validateOmega(h *history.History) error {
	for _, e := range h.Events {
		if e.Omega && h.ADT.IsUpdate(e.Op.In) {
			return ErrOmegaUpdate
		}
	}
	return nil
}

// omegaPreds augments base preds so that each ω-event in omegaSubset
// additionally requires every non-ω event (and, for determinism,
// nothing among ω-events themselves): in an infinite execution the
// ω-event has copies beyond any finite position, so every concrete
// event precedes some copy, and since ω-events are pure queries a
// single representative placed after everything is faithful.
//
// The result is a fresh slice sharing the non-augmented rows of base;
// base itself is never mutated.
func omegaPreds(h *history.History, base []porder.Bitset, omegaSubset porder.Bitset) []porder.Bitset {
	n := h.N()
	nonOmega := porder.FullBitset(n)
	for _, ev := range h.Events {
		if ev.Omega {
			nonOmega.Clear(ev.ID)
		}
	}
	out := make([]porder.Bitset, n)
	copy(out, base)
	omegaSubset.ForEach(func(e int) {
		p := base[e].Clone()
		p.UnionWith(nonOmega)
		p.Clear(e)
		out[e] = p
	})
	return out
}
