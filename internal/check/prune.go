package check

import (
	"github.com/paper-repro/ccbm/internal/porder"
	"github.com/paper-repro/ccbm/internal/xhash"
)

// The pruning layer of the exploration engine (see explore.go for the
// engine itself). The causal-family search enumerates commit orders and
// visibility choices; most distinct commit orders of independent
// operations lead to state-identical continuations that an unpruned
// search re-explores from scratch. The three pruners below — adapted
// from dynamic partial order reduction — cut those re-explorations
// while provably preserving the verdict:
//
//  1. Canonical representatives (Prune.Canon). Frames (search states
//     after a prefix of commits) are fingerprinted order-insensitively:
//     for WCC/CC an XOR-fold of the per-commit (event, past) hashes,
//     because the continuation of a frame depends only on the committed
//     set and the per-event pasts, not on the interleaving that built
//     them. Two frames with colliding fingerprints are interchangeable,
//     so once one has been refuted exhaustively, the other is pruned —
//     the canonical key simply replaces the engine's order-sensitive
//     failed-state key, which makes the existing memo the
//     canonicalization table. For CCv the naive order-insensitive key would be unsound:
//     the shared total order ≤ is the commit order, and a future event's
//     replay of its past depends on the relative commit order of the
//     state-changing events in it (two different update interleavings
//     can compose to the same full state yet replay differently on
//     strict subsets). The CCv key therefore keeps an order-sensitive
//     fold over the state-changing commits and quotients only the
//     placement of pure queries, which never affect any replay's state
//     (spec.ADT's IsUpdate contract: a non-update's δ is a loop).
//     Because only exhaustively-failed frames enter the table, this
//     pruner cannot change which branch succeeds first: verdicts and
//     witnesses are bit-for-bit those of the unpruned search.
//
//  2. Sleep-set-style exclusion (Prune.Sleep). A static rule on commit
//     orders: committing e immediately after d is skipped when e < d,
//     d is not in e's causal past, and d and e commute — the transposed
//     order [..., e, d, ...] reaches the same frame (same committed
//     set, same pasts, and for CCv the same update interleaving up to
//     commuting steps), is lexicographically smaller, and was therefore
//     already entered earlier by the DFS, which enumerates events in
//     increasing id order. For WCC/CC any such pair commutes (the
//     continuation depends only on the committed set and pasts); for
//     CCv two commits commute when either is a pure query or their
//     inputs are equal (equal inputs are the same state transformer,
//     and the adjacent swap changes no past's internal replay order).
//     Iterating the rule terminates at the lexicographically least
//     member of each equivalence class, which is never skipped, so
//     every continuation remains reachable and the first success —
//     hence verdict and witness — is unchanged.
//
//  3. Symmetry quotient (Prune.Symmetry). Processes whose programs are
//     identical (same inputs, outputs, hidden and ω flags, in the same
//     order) are interchangeable: renaming them maps witnesses to
//     witnesses for WCC, CC and CCv alike (their visibility projections
//     are per-event or per-process, both stable under renaming). The
//     search therefore only enters orders in which identical processes
//     start in process-id order: the first event of process p may
//     commit only once the first event of the previous identical
//     process has. The quotient is disabled for histories whose program
//     order is not a disjoint union of per-process chains (Edge-built
//     cross-process constraints, or events outside every process),
//     where renaming is not an automorphism. Unlike the other two
//     pruners this one can skip branches containing the search's first
//     success (an equivalent renamed success survives), so the returned
//     witness may differ from the unpruned search's — still a valid
//     witness, as the differential suite re-validates independently.
//
// The three compose: sleep-set swaps move smaller event ids earlier,
// and within a symmetry class the first events are id-ordered (process
// ids follow first-appearance order), so a swap can never produce an
// order the symmetry rule rejects; the canonical key folds in the last
// committed event whenever Sleep is active, because the sleep rule's
// future decisions depend on it (two frames equal up to that event
// have different pruned continuations otherwise).

// Prune selects which pruners the causal-family checkers (WCC, CC,
// CCv) apply on top of the exhaustive search. The zero value disables
// pruning entirely — the bit-exact PR 1 search. Every pruner preserves
// the verdict; Canon and Sleep also preserve the witness bit-for-bit,
// while Symmetry may return a different (still valid) witness when
// identical processes exist. Disabling pruning is therefore only
// needed when a byte-identical witness across configurations matters
// more than search time, or when cross-checking the pruned search
// itself (as the differential tests do).
type Prune struct {
	// Canon prunes frames whose order-insensitive state fingerprint
	// matches an exhaustively refuted frame.
	Canon bool
	// Sleep statically excludes commit orders that transpose to an
	// already-visited equivalent order.
	Sleep bool
	// Symmetry explores identical processes up to renaming.
	Symmetry bool
}

// PruneAll enables every pruner.
func PruneAll() Prune { return Prune{Canon: true, Sleep: true, Symmetry: true} }

func (p Prune) any() bool { return p.Canon || p.Sleep || p.Symmetry }

// PruneStats counts the frames and branches each pruner cut. The
// counters measure pruning effectiveness, not correctness: any value
// (including zero) is sound.
type PruneStats struct {
	// CanonHits counts frames pruned through the canonical-fingerprint
	// table (with Canon enabled this includes the hits the plain
	// order-sensitive memo would also have had, since the canonical key
	// replaces it).
	CanonHits int64
	// SleepSkips counts (event, visibility) choices excluded by the
	// sleep-set transposition rule.
	SleepSkips int64
	// SymSkips counts frontier events excluded by the symmetry
	// quotient.
	SymSkips int64
}

// Add accumulates t into s.
func (s *PruneStats) Add(t PruneStats) {
	s.CanonHits += t.CanonHits
	s.SleepSkips += t.SleepSkips
	s.SymSkips += t.SymSkips
}

// Total is the sum of all counters.
func (s PruneStats) Total() int64 { return s.CanonHits + s.SleepSkips + s.SymSkips }

// pruner is the pluggable pruning layer of the exploration engine. The
// engine consults it at three points of the enumeration — frame entry
// (frameKey), frontier-event admission (admitEvent) and visibility-
// choice admission (admitChoice) — and notifies it of every commit and
// uncommit so incremental fingerprints stay in step with the search
// state. A nil pruner (the engine's default) is the unpruned search.
type pruner interface {
	// frameKey returns the canonical failed-state key for the current
	// frame, replacing the engine's order-sensitive key; ok reports
	// whether canonicalization is active.
	frameKey() (key uint64, ok bool)
	// canonHit records that the current frame was pruned through the
	// canonical table.
	canonHit()
	// admitEvent reports whether frontier event e may be tried at the
	// current frame.
	admitEvent(e int) bool
	// admitChoice reports whether committing e with the given causal
	// past may be explored from the current frame. past excludes e and
	// is downward closed.
	admitChoice(e int, past porder.Bitset) bool
	// pushed/popped track the engine's commit stack; pastHash is
	// past.Hash64() of the committed event's causal past.
	pushed(e int, pastHash uint64)
	popped()
	// snapshot returns the counters accumulated so far.
	snapshot() PruneStats
}

// dporPruner implements all three pruners over one causalSearcher.
type dporPruner struct {
	cs    *causalSearcher
	cfg   Prune
	stats PruneStats

	// Canonical-representative fingerprints, maintained incrementally
	// across push/pop: setHash is the XOR-fold of the order-insensitive
	// commits, updHash the order-sensitive fold of the state-changing
	// commits (CCv only; zero otherwise). The stacks save the previous
	// values per depth.
	setHash  uint64
	updHash  uint64
	setStack []uint64
	updStack []uint64

	// Symmetry quotient, nil slices when disabled: symFirst[p] is the
	// id of process p's first event (-1 for empty processes) and
	// symPrev[p] the nearest smaller process with an identical program
	// (-1 for class leaders).
	symFirst []int
	symPrev  []int
}

// newPruner builds the pruning layer for cs, or returns nil when cfg
// enables nothing.
func newPruner(cs *causalSearcher, cfg Prune) *dporPruner {
	if !cfg.any() {
		return nil
	}
	pr := &dporPruner{cs: cs, cfg: cfg, setHash: xhash.Seed, updHash: xhash.Seed}
	if cfg.Canon {
		pr.setStack = make([]uint64, 0, cs.n)
		if cs.kind == kindCCv {
			pr.updStack = make([]uint64, 0, cs.n)
		}
	}
	if cfg.Symmetry {
		pr.initSymmetry()
	}
	return pr
}

// initSymmetry computes the identical-program classes, leaving symFirst
// nil when the quotient does not apply (cross-process program-order
// edges, events outside every process, or no repeated program).
func (pr *dporPruner) initSymmetry() {
	h := pr.cs.h
	n := h.N()
	procs := len(h.Processes())
	if procs < 2 {
		return
	}
	// The quotient is sound only when program order is exactly the
	// disjoint union of per-process chains: each event's program
	// predecessors must be precisely the earlier events of its own
	// process (event ids within a process ascend in program order by
	// construction of the history builder).
	perProc := make([][]int, procs)
	scratch := porder.NewBitset(n)
	for e := 0; e < n; e++ {
		p := h.Events[e].Proc
		if p < 0 {
			return // event outside every process: renaming undefined
		}
		scratch.ClearAll()
		for _, f := range perProc[p] {
			scratch.Set(f)
		}
		if !pr.cs.progPreds[e].SubsetOf(scratch) || !scratch.SubsetOf(pr.cs.progPreds[e]) {
			return // forked/joined program order: not chain-shaped
		}
		perProc[p] = append(perProc[p], e)
	}
	sameProgram := func(a, b []int) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			ea, eb := h.Events[a[i]], h.Events[b[i]]
			if !ea.Op.In.Equal(eb.Op.In) || !ea.Op.Out.Equal(eb.Op.Out) ||
				ea.Op.Hidden != eb.Op.Hidden || ea.Omega != eb.Omega {
				return false
			}
		}
		return true
	}
	symFirst := make([]int, procs)
	symPrev := make([]int, procs)
	classes := false
	for p := range perProc {
		symFirst[p] = -1
		if len(perProc[p]) > 0 {
			symFirst[p] = perProc[p][0]
		}
		symPrev[p] = -1
		for q := p - 1; q >= 0; q-- {
			if sameProgram(perProc[p], perProc[q]) {
				symPrev[p] = q
				classes = classes || len(perProc[p]) > 0
				break
			}
		}
	}
	if !classes {
		return // every program unique: nothing to quotient
	}
	pr.symFirst, pr.symPrev = symFirst, symPrev
}

// frameKey implements pruner: the canonical failed-state key of the
// current frame. The commit level disambiguates the empty fold, the
// last committed event is folded in when the sleep rule is active (its
// future skip decisions depend on it), and for CCv the order-sensitive
// update fold rides along.
func (pr *dporPruner) frameKey() (uint64, bool) {
	if !pr.cfg.Canon {
		return 0, false
	}
	cs := pr.cs
	key := xhash.Mix(pr.setHash, uint64(len(cs.order)))
	if cs.kind == kindCCv {
		key = xhash.Mix(key, pr.updHash)
	}
	if pr.cfg.Sleep && len(cs.order) > 0 {
		key = xhash.Mix(key, uint64(cs.order[len(cs.order)-1]+1))
	}
	return key, true
}

func (pr *dporPruner) canonHit() { pr.stats.CanonHits++ }

// admitEvent implements pruner: the symmetry quotient. Only the first
// event of a process is ever constrained — it may commit only once the
// nearest smaller identical process has started.
func (pr *dporPruner) admitEvent(e int) bool {
	if pr.symFirst == nil {
		return true
	}
	p := pr.cs.h.Events[e].Proc
	if pr.symFirst[p] != e {
		return true
	}
	if q := pr.symPrev[p]; q >= 0 && !pr.cs.committed.Has(pr.symFirst[q]) {
		pr.stats.SymSkips++
		return false
	}
	return true
}

// admitChoice implements pruner: the sleep-set transposition rule.
// Committing e right after d is skipped when the transposed order is
// equivalent and lexicographically smaller — see the file comment for
// the commutation conditions and the soundness argument.
func (pr *dporPruner) admitChoice(e int, past porder.Bitset) bool {
	if !pr.cfg.Sleep {
		return true
	}
	cs := pr.cs
	if len(cs.order) == 0 {
		return true
	}
	d := cs.order[len(cs.order)-1]
	if e > d || past.Has(d) {
		return true
	}
	if cs.kind == kindCCv && cs.updates.Has(d) && cs.updates.Has(e) &&
		!cs.h.Events[d].Op.In.Equal(cs.h.Events[e].Op.In) {
		return true // two distinct state transformers: order matters for ≤
	}
	pr.stats.SleepSkips++
	return false
}

// pushed/popped maintain the canonical fingerprints alongside the
// engine's commit stack: both folds are saved per depth, so popping
// restores them unconditionally.
func (pr *dporPruner) pushed(e int, pastHash uint64) {
	if !pr.cfg.Canon {
		return
	}
	cs := pr.cs
	pr.setStack = append(pr.setStack, pr.setHash)
	if cs.kind == kindCCv {
		pr.updStack = append(pr.updStack, pr.updHash)
		if cs.updates.Has(e) {
			// State-changing commit: order-sensitive fold, because CCv
			// replays pasts in commit order.
			pr.updHash = xhash.Mix(xhash.Mix(pr.updHash, uint64(e)), pastHash)
			return
		}
	}
	// Full-avalanche per-commit hash, XOR-folded so the interleaving
	// that built the frame cancels out.
	pr.setHash ^= xhash.Mix(xhash.Mix(xhash.Seed, uint64(e)+1), pastHash)
}

func (pr *dporPruner) popped() {
	if !pr.cfg.Canon {
		return
	}
	pr.setHash = pr.setStack[len(pr.setStack)-1]
	pr.setStack = pr.setStack[:len(pr.setStack)-1]
	if pr.cs.kind == kindCCv {
		pr.updHash = pr.updStack[len(pr.updStack)-1]
		pr.updStack = pr.updStack[:len(pr.updStack)-1]
	}
}

func (pr *dporPruner) snapshot() PruneStats { return pr.stats }
