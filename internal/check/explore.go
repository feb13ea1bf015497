package check

import (
	"math/bits"

	"github.com/paper-repro/ccbm/internal/history"
	"github.com/paper-repro/ccbm/internal/porder"
	"github.com/paper-repro/ccbm/internal/xhash"
)

// The exploration engine of the causal-family checkers, layered as:
//
//	run            frame loop: terminal test, budget, failed-state memo
//	└ frontier     frontier enumeration: which events may commit next
//	  └ tryCommit  visibility-choice enumeration for one event
//	    └ commitWith  build the past, check the criterion, recurse
//
// plus a pluggable pruning layer (the pruner interface, prune.go)
// consulted at each level: run swaps the failed-state key for the
// pruner's canonical frame key, frontier filters events through
// admitEvent, and commitWith filters (event, visibility) choices
// through admitChoice. The criterion itself is confined to checkEvent
// (causal.go).

// maxSubsetCands bounds the number of candidate updates one commit's
// visibility enumeration handles: antichains are enumerated as uint64
// masks over the candidates, so the bound is the word width, not a
// memory cap. A commit wider than that surfaces as ErrBudget.
const maxSubsetCands = 64

// eagerFrameLimit bounds the history size for which the per-depth int
// scratch (candidate lists, witness buffers — O(n²) ints in total) is
// preallocated in one slab; larger histories grow those buffers lazily
// per reached depth.
const eagerFrameLimit = 256

// csFrame is the per-depth scratch of tryCommit: the forced visibility
// set, the candidate past under construction, the candidate update
// list, the comparability masks over it and the antichain currently
// tried. Depth d commits at most one event at a time, so one frame per
// depth suffices; pasts[e] of a committed event aliases its frame's
// past buffer until uncommit.
type csFrame struct {
	forced porder.Bitset
	past   porder.Bitset
	cand   []int
	// comp[i] has bit j (j < i) set when cand[i] and cand[j] are
	// comparable, one in the other's past.
	comp []uint64
	x    []int
	lin  []int // witness linearization buffer for the event committed here
}

type causalSearcher struct {
	h       *history.History
	kind    causalKind
	budget  *int
	n       int
	updates porder.Bitset
	omega   porder.Bitset
	// progPreds[e] = all strict program-order predecessors of e.
	progPreds []porder.Bitset

	committed porder.Bitset
	order     []int           // commit order (the total order ≤ for CCv)
	pos       []int           // commit position per event (-1 if not committed)
	pasts     []porder.Bitset // ⌊e⌋ \ {e} for committed events
	perEvent  [][]int         // witness linearization per event

	// memo holds fingerprints of failed commit-level states; stateHash
	// is the current state's fingerprint, maintained incrementally
	// across commit/uncommit (hashStack saves the pre-commit value per
	// depth). With canonical pruning active, the pruner's frame key
	// replaces the order-sensitive stateHash as the key, making the
	// same table the canonicalization table. The per-event lin queries
	// keep their own per-query memo inside ls.
	memo      map[uint64]struct{}
	stateHash uint64
	hashStack []uint64

	// prune, when non-nil, is the pruning layer (see prune.go).
	prune pruner

	// feed, when non-nil, refills the budget in chunks while the
	// caller's context is live (see budget.go).
	feed *feeder

	frames []csFrame

	// Reusable per-event check machinery: one linearization engine for
	// the whole search (its failed-state memo reset per query, its
	// transition cache kept across queries), plus scratch for the
	// include/visible projections. The engine's preds slice is cs.pasts
	// itself: commitWith publishes the tentative past in pasts[e] before
	// checkEvent runs, so no per-event predecessor indirection exists.
	ls      linSearcher
	include porder.Bitset
	visible porder.Bitset

	budgetVal int // backing store for budget when the caller has none
}

func newCausalSearcher(h *history.History, kind causalKind, maxNodes int, prune Prune) *causalSearcher {
	n := h.N()
	cs := &causalSearcher{
		h:         h,
		kind:      kind,
		n:         n,
		updates:   h.UpdatesView(),
		omega:     h.OmegaView(),
		progPreds: h.ProgPreds(),
		pasts:     make([]porder.Bitset, n),
		perEvent:  make([][]int, n),
		memo:      make(map[uint64]struct{}),
		stateHash: xhash.Seed,
		frames:    make([]csFrame, n),
		budgetVal: maxNodes,
	}
	cs.budget = &cs.budgetVal
	cs.ls = linSearcher{
		t: h.ADT, events: h.Events, budget: cs.budget,
		// The causal search issues one linearization query per candidate
		// commit over overlapping pasts, so transition caching pays for
		// itself (see linSearcher.steps).
		steps: &fpTable[stepVal]{},
	}
	// All fixed-size working memory comes out of two slabs: one for
	// every scratch bitset (per-depth frames plus the searcher's own),
	// one for every scratch int slice. This keeps construction at a
	// handful of allocations regardless of history size. The int slab
	// is quadratic in n, so beyond eagerFrameLimit events the frames'
	// int buffers and comparability masks start nil instead and grow on
	// first use at each depth (append-amortized) — exact checking at
	// that scale is only feasible for trivially-satisfiable histories
	// anyway, and an upfront O(n²) allocation would dwarf the search's
	// real footprint.
	words := (n + 63) / 64
	// Depth d has at most d candidates, all of them updates.
	maxCands := min(cs.updates.Count(), maxSubsetCands)
	compWords := 0
	if n <= eagerFrameLimit {
		for i := range n {
			compWords += min(i, maxCands)
		}
	}
	bitSlab := make(porder.Bitset, (4*n+4)*words+compWords+n)
	cutWords := func(k int) porder.Bitset {
		b := bitSlab[:k:k]
		bitSlab = bitSlab[k:]
		return b
	}
	cut := func(k int) porder.Bitset { return cutWords(k * words) }
	cs.committed = cut(1)
	cs.include = cut(1)
	cs.visible = cut(1)
	cs.ls.done = cut(1)
	cs.ls.desc = cut(n)
	cs.ls.todo = cut(n)
	for i := range cs.frames {
		cs.frames[i] = csFrame{forced: cut(1), past: cut(1)}
		if n <= eagerFrameLimit {
			cs.frames[i].comp = cutWords(min(i, maxCands))
		}
	}
	cs.hashStack = []uint64(bitSlab[:0:n]) // remaining slab words back the hash stack
	if n <= eagerFrameLimit {
		intSlab := make([]int, n*(3*n+1)+2*n)
		cutInts := func(k int) []int {
			s := intSlab[:0:k]
			intSlab = intSlab[k:]
			return s
		}
		for i := range cs.frames {
			cs.frames[i].cand = cutInts(n)
			cs.frames[i].x = cutInts(n)
			cs.frames[i].lin = cutInts(n + 1)
		}
		cs.order = cutInts(n)
		cs.pos = cutInts(n)[:n]
	} else {
		cs.order = make([]int, 0, n)
		cs.pos = make([]int, n)
	}
	for i := range cs.pos {
		cs.pos[i] = -1
	}
	if pr := newPruner(cs, prune); pr != nil {
		cs.prune = pr
	}
	return cs
}

// run performs the search and reports success.
func (cs *causalSearcher) run() bool {
	if len(cs.order) == cs.n {
		return true
	}
	*cs.budget--
	if *cs.budget < 0 && !cs.feed.refill() {
		return false
	}
	// stateHash fingerprints the committed set plus each committed
	// event's past, folded in commit order — the same information the
	// memo used to key on as a built string. Two branches that
	// committed the same events with the same pasts are interchangeable
	// for the remaining search (for CCv the commit order also fixes
	// past linearizations, but those are functions of the pasts and
	// positions, which the order-sensitive fold captures). A canonical
	// pruner coarsens the key further — interchangeable frames reached
	// through different interleavings then share one entry.
	key := cs.stateHash
	canon := false
	if cs.prune != nil {
		if k, ok := cs.prune.frameKey(); ok {
			key, canon = k, true
		}
	}
	if _, failed := cs.memo[key]; failed {
		if canon {
			cs.prune.canonHit()
		}
		return false
	}
	if cs.frontier() {
		return true
	}
	if *cs.budget >= 0 {
		cs.memo[key] = struct{}{}
	}
	return false
}

// frontier enumerates the events eligible to commit at the current
// frame — uncommitted, program predecessors committed, ω-events only
// once every update is in — in increasing id order, trying each
// through tryCommit. The id order is the enumeration order the
// sleep-set rule's lexicographic argument builds on. It reports
// whether some continuation succeeded; on budget exhaustion it
// unwinds early.
func (cs *causalSearcher) frontier() bool {
	allUpdatesIn := cs.updates.SubsetOf(cs.committed)
	for e := 0; e < cs.n; e++ {
		if cs.committed.Has(e) {
			continue
		}
		if !cs.progPreds[e].SubsetOf(cs.committed) {
			continue
		}
		if cs.omega.Has(e) && !allUpdatesIn {
			continue // ω-events observe every update
		}
		if cs.prune != nil && !cs.prune.admitEvent(e) {
			continue
		}
		if cs.tryCommit(e) {
			return true
		}
		if *cs.budget < 0 {
			return false
		}
	}
	return false
}

// tryCommit enumerates visibility choices for e and recurses.
func (cs *causalSearcher) tryCommit(e int) bool {
	fr := &cs.frames[len(cs.order)]

	// forced = program predecessors and their pasts.
	forced := fr.forced
	forced.ClearAll()
	for wi, w := range cs.progPreds[e] {
		for w != 0 {
			pr := wi*64 + bits.TrailingZeros64(w)
			w &= w - 1
			forced.Set(pr)
			forced.UnionWith(cs.pasts[pr])
		}
	}

	// Candidate extra updates: committed updates not already forced.
	fr.cand = fr.cand[:0]
	for wi := range cs.committed {
		w := cs.committed[wi] & cs.updates[wi] &^ forced[wi]
		for w != 0 {
			fr.cand = append(fr.cand, wi*64+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}

	if cs.omega.Has(e) {
		// Forced full visibility of all updates.
		return cs.commitWith(e, fr, fr.cand)
	}

	// Two visibility subsets give the same past exactly when they have
	// the same maximal elements under "in the past of", so only the
	// antichains of the candidates are tried, one per distinct past.
	// They go smallest first — minimal visibility is most often
	// sufficient and keeps later events freer — and by increasing mask
	// within a size. That is the (popcount, mask) order of all subsets
	// with every subset dropped whose past an earlier one (its antichain
	// of maximal elements) already gave. No antichain of some size means
	// none of any larger size.
	k := len(fr.cand)
	if k > maxSubsetCands {
		// Unrealistically wide; treat as budget exhaustion.
		cs.exhaust()
		return false
	}
	for c := 0; c <= k; c++ {
		if c == 2 {
			// Sizes 0 and 1 are always antichains; larger ones need the
			// comparability masks, tested in both directions.
			fr.comp = fr.comp[:0]
			for i, u := range fr.cand {
				var m uint64
				for j, v := range fr.cand[:i] {
					if cs.pasts[u].Has(v) || cs.pasts[v].Has(u) {
						m |= 1 << j
					}
				}
				fr.comp = append(fr.comp, m)
			}
		}
		ok, tried := cs.antichains(e, fr, 1<<k-1, c, 0)
		if ok {
			return true
		}
		if !tried || *cs.budget < 0 {
			return false
		}
	}
	return false
}

// antichains tries, in increasing mask order, every antichain made of
// the chosen candidates acc plus c more from avail (masks over
// fr.cand; every member of acc lies above avail and is incomparable
// with it). It is a colex recursion: take the highest new element
// first, then drop the candidates comparable with it. Each antichain
// is charged one node. It reports whether a commit succeeded and
// whether any antichain was tried.
func (cs *causalSearcher) antichains(e int, fr *csFrame, avail uint64, c int, acc uint64) (ok, tried bool) {
	if c == 0 {
		*cs.budget--
		if *cs.budget < 0 && !cs.feed.refill() {
			return false, true
		}
		fr.x = fr.x[:0]
		for m := acc; m != 0; m &= m - 1 {
			fr.x = append(fr.x, fr.cand[bits.TrailingZeros64(m)])
		}
		return cs.commitWith(e, fr, fr.x), true
	}
	for a := avail; a != 0; a &= a - 1 {
		h := bits.TrailingZeros64(a)
		var below uint64
		if c > 1 {
			below = avail & (1<<h - 1) &^ fr.comp[h]
			if bits.OnesCount64(below) < c-1 {
				continue
			}
		}
		ok, got := cs.antichains(e, fr, below, c-1, acc|1<<h)
		tried = tried || got
		if ok || *cs.budget < 0 {
			return ok, tried
		}
	}
	return false, tried
}

// commitWith builds e's past from the forced set plus the chosen extra
// updates x, checks the criterion, and recurses on success. The
// tentative past is published in pasts[e] up front so that the
// linearization engine can read predecessor sets straight from
// cs.pasts (e is not yet committed, so nothing else reads it).
func (cs *causalSearcher) commitWith(e int, fr *csFrame, x []int) bool {
	past := fr.past
	past.CopyFrom(fr.forced)
	for _, u := range x {
		past.Set(u)
		past.UnionWith(cs.pasts[u])
	}
	if cs.prune != nil && !cs.prune.admitChoice(e, past) {
		return false
	}
	cs.pasts[e] = past
	lin, ok := cs.checkEvent(e, past, fr)
	if !ok {
		cs.pasts[e] = nil
		return false
	}
	cs.push(e, past, lin)
	if cs.run() {
		return true
	}
	cs.pop(e)
	return false
}

// push performs the commit bookkeeping for e once checkEvent accepted
// it: pasts[e] must already hold the (frame-aliased) past. pop undoes
// it, restoring the incremental fingerprints, the pruner's included.
func (cs *causalSearcher) push(e int, past porder.Bitset, lin []int) {
	cs.committed.Set(e)
	cs.pos[e] = len(cs.order)
	cs.order = append(cs.order, e)
	cs.perEvent[e] = lin
	cs.hashStack = append(cs.hashStack, cs.stateHash)
	ph := past.Hash64()
	cs.stateHash = xhash.Mix(xhash.Mix(cs.stateHash, uint64(e)), ph)
	if cs.prune != nil {
		cs.prune.pushed(e, ph)
	}
}

func (cs *causalSearcher) pop(e int) {
	if cs.prune != nil {
		cs.prune.popped()
	}
	cs.stateHash = cs.hashStack[len(cs.hashStack)-1]
	cs.hashStack = cs.hashStack[:len(cs.hashStack)-1]
	cs.order = cs.order[:len(cs.order)-1]
	cs.pos[e] = -1
	cs.committed.Clear(e)
	cs.pasts[e] = nil
	cs.perEvent[e] = nil
}

// exhaust forces the search to unwind as budget-exhausted.
func (cs *causalSearcher) exhaust() {
	*cs.budget = -1
	if cs.feed != nil {
		cs.feed.left = 0
	}
}

// pruneStats returns the pruning counters accumulated by this
// searcher, zero when pruning is off.
func (cs *causalSearcher) pruneStats() PruneStats {
	if cs.prune == nil {
		return PruneStats{}
	}
	return cs.prune.snapshot()
}

// explored returns the number of nodes this searcher consumed out of
// an initial budget of `total`, whether the countdown was local or
// fed in chunks.
func (cs *causalSearcher) explored(total int) int64 {
	return spentNodes(total, cs.feed, cs.budgetVal)
}

// witness clones the committed pasts and per-event linearizations out
// of the searcher's scratch frames (via two slabs) so the returned
// Witness owns its memory. It must only be called after a successful
// run.
func (cs *causalSearcher) witness() *Witness {
	words := (cs.n + 63) / 64
	pastSlab := make(porder.Bitset, cs.n*words)
	pasts := make([]porder.Bitset, len(cs.pasts))
	for i, p := range cs.pasts {
		if p != nil {
			row := pastSlab[:words:words]
			pastSlab = pastSlab[words:]
			copy(row, p)
			pasts[i] = row
		}
	}
	total := cs.n
	for _, l := range cs.perEvent {
		total += len(l)
	}
	linSlab := make([]int, total)
	order := linSlab[:0:cs.n]
	linSlab = linSlab[cs.n:]
	perEvent := make([][]int, len(cs.perEvent))
	for i, l := range cs.perEvent {
		if l != nil {
			row := linSlab[:len(l):len(l)]
			linSlab = linSlab[len(l):]
			copy(row, l)
			perEvent[i] = row
		}
	}
	return &Witness{
		Order:    append(order, cs.order...),
		Pasts:    pasts,
		PerEvent: perEvent,
	}
}
