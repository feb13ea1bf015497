package check

import (
	"context"
	"sync"
	"sync/atomic"

	"github.com/paper-repro/ccbm/internal/history"
	"github.com/paper-repro/ccbm/internal/porder"
)

// Parallel mode for the causal-family searchers.
//
// The sequential search is a DFS over commit decisions: at each level
// it picks the next event to commit and the extra updates that event
// observes. Parallel mode runs the same DFS, but forks its top levels:
// the coordinator first expands the tree sequentially down to a small
// frontier, then hands every surviving frontier node to a worker as an
// independent subtree task. Each task replays its prefix of commit
// decisions on a private searcher (own scratch frames, own lin
// transition cache and per-query lin memo) and searches its subtree
// to completion; only the commit-level failed-state memo is shared,
// through a lock-sharded fingerprint table, so one task's dead ends
// prune the others. With canonical pruning enabled
// (Options.Prune.Canon) the shared table holds the pruner's canonical
// frame keys instead, so the sharing additionally collapses
// equivalent frames across tasks; the static
// sleep-set and symmetry rules are deterministic per frame and apply
// identically in the expansion, the prefix-admitted replays aside, and
// the subtree searches, so verdict and witness equality with the
// sequential pruned search is preserved (equivalent frames have
// identical pruned continuations, hence canonical entries still only
// ever prune branches that would fail).
//
// Determinism. Tasks are numbered in the exact order the sequential
// DFS would enter their subtrees, and the parallel verdict is defined
// as the sequential one: the first task in that order to succeed wins,
// and its witness is returned. A success at task i cancels only tasks
// j > i — tasks before i must still run to completion, because one of
// them succeeding would make it the sequential answer instead. Within
// a task the DFS order is identical to the sequential search, and memo
// entries (shared or not) only ever prune branches that have failed
// exhaustively, which can never change which branch succeeds first.
// Verdict and witness are therefore bit-for-bit identical to the
// sequential path. The only divergence is budget exhaustion: the node
// budget is drawn from a shared pool in chunks, so *which* task hits
// the bottom of the pool depends on scheduling. A run that stays under
// budget is fully deterministic; a run that exhausts it returns
// ErrBudget on both paths whenever the exhaustion happens before the
// winning task in sequential order.

// feederChunk is the number of nodes a searcher draws from the shared
// budget pool at a time. It bounds both the atomic traffic (one CAS
// per chunk) and the cancellation latency (stop flags are polled once
// per chunk).
const feederChunk = 4096

// minParallelEvents gates parallel mode: below this many events the
// per-task searcher construction and prefix replay cost more than the
// whole sequential search. A variable so the differential tests can
// force tiny histories down the parallel path.
var minParallelEvents = 8

// parallelForkFactor scales the size of the task frontier: the
// expansion deepens until it has at least parallelism*forkFactor
// tasks (or gives up at maxForkDepth). More tasks than workers keeps
// the pool busy when subtree sizes are skewed.
const parallelForkFactor = 4

// maxForkDepth bounds the frontier expansion depth; the expansion
// re-runs the top of the tree once per level, so this also bounds the
// duplicated sequential work.
const maxForkDepth = 3

// budgetPool is the shared node budget of one parallel (or
// interruptible) search, handed out in chunks.
type budgetPool struct {
	left atomic.Int64
}

func newBudgetPool(total int) *budgetPool {
	p := &budgetPool{}
	p.left.Store(int64(total))
	return p
}

// take grabs up to feederChunk nodes, returning 0 when the pool is
// empty.
func (p *budgetPool) take() int {
	for {
		cur := p.left.Load()
		if cur <= 0 {
			return 0
		}
		g := int64(feederChunk)
		if cur < g {
			g = cur
		}
		if p.left.CompareAndSwap(cur, cur-g) {
			return int(g)
		}
	}
}

// put returns unspent budget (a finishing task's remainder).
func (p *budgetPool) put(n int) {
	if n > 0 {
		p.left.Add(int64(n))
	}
}

// feeder tops a searcher's countdown budget back up from the shared
// pool and carries the two abort signals: the caller's context (whose
// cancellation or deadline interrupts the search) and the task's
// cancellation flag. A nil feeder (the sequential, uncancellable
// configuration) refuses every refill, which leaves the classic
// "count down from MaxNodes and stop" behaviour.
type feeder struct {
	pool   *budgetPool
	ctx    context.Context // caller-level cancellation; nil = never
	cancel *atomic.Bool    // task-level cancellation (sibling won)
	budget *int

	interrupted bool
	cancelled   bool
	exhausted   bool
}

func newFeeder(pool *budgetPool, ctx context.Context, cancel *atomic.Bool, budget *int) *feeder {
	return &feeder{pool: pool, ctx: ctx, cancel: cancel, budget: budget}
}

// refill is called when the local budget dips below zero; it reports
// whether the search may continue. On refusal the budget stays
// negative and the search unwinds (without writing memo entries, since
// those writes are guarded by a non-negative budget).
func (f *feeder) refill() bool {
	if f == nil {
		return false
	}
	if f.exhausted || f.cancelled || f.interrupted {
		return false
	}
	if f.ctx != nil && f.ctx.Err() != nil {
		f.interrupted = true
		return false
	}
	if f.cancel != nil && f.cancel.Load() {
		f.cancelled = true
		return false
	}
	g := f.pool.take()
	if g == 0 {
		f.exhausted = true
		return false
	}
	*f.budget += g
	return true
}

// release returns the searcher's unspent budget to the pool.
func (f *feeder) release() {
	if f != nil && *f.budget > 0 {
		f.pool.put(*f.budget)
		*f.budget = 0
	}
}

// shardedMemo is the commit-level failed-state table shared by the
// subtree tasks: 64 mutex-guarded shards selected by the low key bits.
// Entries are only ever added (failed states stay failed), so a racy
// miss is merely a missed prune, never an unsound one.
type shardedMemo struct {
	shards [64]struct {
		mu sync.Mutex
		m  map[uint64]struct{}
	}
}

func newShardedMemo() *shardedMemo {
	s := &shardedMemo{}
	for i := range s.shards {
		s.shards[i].m = make(map[uint64]struct{})
	}
	return s
}

func (s *shardedMemo) failed(key uint64) bool {
	sh := &s.shards[key&63]
	sh.mu.Lock()
	_, ok := sh.m[key]
	sh.mu.Unlock()
	return ok
}

func (s *shardedMemo) add(key uint64) {
	sh := &s.shards[key&63]
	sh.mu.Lock()
	sh.m[key] = struct{}{}
	sh.mu.Unlock()
}

// prefixStep is one replayable commit decision: event e committed with
// the given causal past (past excludes e and is an owned clone).
type prefixStep struct {
	e    int
	past porder.Bitset
}

// task states, written once by the owning worker (or by the dispatch
// loop for tasks skipped after a smaller-index success).
const (
	taskPending = iota
	taskFailed  // subtree exhaustively refuted
	taskSuccess // witness found; cs retained
	taskAborted // cancelled / interrupted / out of budget
)

type causalTask struct {
	steps  []prefixStep
	cancel atomic.Bool

	status int
	feed   *feeder
	cs     *causalSearcher // retained on success for witness extraction
	prune  PruneStats      // the task searcher's pruning counters
}

// expander drives the frontier expansion by hijacking the searcher's
// commit continuation (cs.next): tryCommit keeps enumerating the
// (event, visibility subset) choices — so the expansion order is the
// sequential DFS order by construction, not by careful duplication —
// while descend bounds the depth and records the decisions as a
// replayable prefix.
type expander struct {
	cs    *causalSearcher
	depth int // remaining fork levels below the current node
	steps []prefixStep
	tasks *[]*causalTask
}

// descend is installed as cs.next for the duration of the expansion;
// commitWith calls it right after push(e, ...), so the just-committed
// event is the last of cs.order and its (frame-aliased) past is
// pasts[e].
func (x *expander) descend() bool {
	cs := x.cs
	e := cs.order[len(cs.order)-1]
	x.steps = append(x.steps, prefixStep{e: e, past: cs.pasts[e]})
	x.depth--
	ok := x.level()
	x.depth++
	x.steps = x.steps[:len(x.steps)-1]
	return ok
}

// level is the expansion counterpart of cs.run: the same frontier
// enumeration (including the static sleep/symmetry pruning rules,
// which must cut the same branches in expansion as in the subtree
// searches), but cut off at the fork depth (emitting a task instead of
// recursing further) and without the failed-state memo — a frontier
// node's "failure" is not exhaustive, so nothing may be recorded, and
// reads would never hit (the expansion searcher's memo starts empty
// and the shared canonical table only fills once tasks run).
func (x *expander) level() bool {
	cs := x.cs
	if len(cs.order) == cs.n {
		return true
	}
	if x.depth == 0 {
		t := &causalTask{steps: make([]prefixStep, len(x.steps))}
		for i, st := range x.steps {
			t.steps[i] = prefixStep{e: st.e, past: st.past.Clone()}
		}
		*x.tasks = append(*x.tasks, t)
		return false
	}
	*cs.budget--
	if *cs.budget < 0 && !cs.feed.refill() {
		return false
	}
	return cs.frontier()
}

// expandFrontier runs the search down to `levels` commit levels,
// appending one causalTask per surviving frontier node in exact
// sequential DFS order. It returns true if a complete causal order was
// discovered during expansion (possible when the history has no more
// than `levels` events); the caller then reads the witness straight
// off cs.
func expandFrontier(cs *causalSearcher, levels int, tasks *[]*causalTask) (found bool) {
	x := &expander{cs: cs, depth: levels, steps: make([]prefixStep, 0, levels), tasks: tasks}
	cs.next = x.descend
	defer func() { cs.next = cs.run }()
	return x.level()
}

// replayPrefix re-applies a task's commit decisions on a fresh
// searcher. Every step passed checkEvent during expansion, so the only
// way a replay step can fail is running out of budget (or being
// cancelled); a failure with budget to spare would mean the replay
// diverged from the expansion, which the panic makes loud.
func (cs *causalSearcher) replayPrefix(steps []prefixStep) bool {
	for _, st := range steps {
		fr := &cs.frames[len(cs.order)]
		fr.past.CopyFrom(st.past)
		cs.pasts[st.e] = fr.past
		lin, ok := cs.checkEvent(st.e, fr.past, fr)
		if !ok {
			cs.pasts[st.e] = nil
			if *cs.budget >= 0 {
				panic("check: parallel prefix replay diverged from expansion")
			}
			return false
		}
		cs.push(st.e, fr.past, lin)
	}
	return true
}

// runCausalParallel is the parallel counterpart of the sequential body
// of runCausal; see the file comment for the determinism argument.
func runCausalParallel(ctx context.Context, h *history.History, kind causalKind, opt Options) (bool, *Witness, error) {
	par := opt.parallelism()
	pool := newBudgetPool(opt.maxNodes())
	shard := newShardedMemo()
	root := newCausalSearcher(h, kind, 0, opt.Prune)
	var tasks []*causalTask
	if opt.Stats != nil {
		// Every feeder releases its unspent chunk back to the pool, so
		// at return time the pool deficit is exactly the explored count.
		// Pruning counters come from the expansion searcher plus every
		// task searcher that ran (workers record them before finishing,
		// so reading after wg.Wait — or before dispatch — is safe).
		defer func() {
			left := int(pool.left.Load())
			if left < 0 {
				left = 0
			}
			opt.Stats.Nodes += int64(opt.maxNodes() - left)
			opt.Stats.Prune.Add(root.pruneStats())
			for _, t := range tasks {
				opt.Stats.Prune.Add(t.prune)
			}
		}()
	}

	// Frontier expansion on a root searcher, deepening until there are
	// enough tasks to keep the workers busy. Each deepening re-expands
	// from scratch (the push/pop discipline restores the root searcher
	// between rounds); the duplicated work is bounded by maxForkDepth
	// levels of the top of the tree.
	root.feed = newFeeder(pool, ctx, nil, root.budget)
	root.ls.feed = root.feed
	target := par * parallelForkFactor
	for depth := 1; ; depth++ {
		tasks = tasks[:0]
		if expandFrontier(root, depth, &tasks) {
			// The search completed while expanding (tiny histories or a
			// witness within `depth` commits).
			root.feed.release()
			return true, root.witness(), nil
		}
		if root.feed.interrupted {
			return false, nil, ctx.Err()
		}
		if *root.budget < 0 {
			return false, nil, ErrBudget
		}
		if len(tasks) == 0 {
			// Every branch died within `depth` levels: exhaustive
			// refutation found during expansion.
			root.feed.release()
			return false, nil, nil
		}
		if len(tasks) >= target || depth >= maxForkDepth || depth >= h.N() {
			break
		}
	}
	root.feed.release()

	// Dispatch. Workers pull task indices in order; a success at index
	// i cancels every task after i but lets earlier ones finish.
	var (
		next     atomic.Int64
		firstWin atomic.Int64
		wg       sync.WaitGroup
	)
	firstWin.Store(int64(len(tasks)))
	workers := par
	if workers > len(tasks) {
		workers = len(tasks)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(tasks) {
					return
				}
				t := tasks[i]
				if int64(i) > firstWin.Load() {
					t.status = taskAborted // outrun by an earlier success
					continue
				}
				cs := newCausalSearcher(h, kind, 0, opt.Prune)
				feed := newFeeder(pool, ctx, &t.cancel, cs.budget)
				cs.feed = feed
				cs.ls.feed = feed
				cs.shard = shard
				t.feed = feed
				if cs.replayPrefix(t.steps) && cs.run() {
					t.status = taskSuccess
					t.cs = cs
					for {
						cur := firstWin.Load()
						if int64(i) >= cur || firstWin.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
					for j := i + 1; j < len(tasks); j++ {
						tasks[j].cancel.Store(true)
					}
				} else if feed.cancelled || feed.interrupted || feed.exhausted || *cs.budget < 0 {
					t.status = taskAborted
				} else {
					t.status = taskFailed
				}
				t.prune = cs.pruneStats()
				feed.release()
			}
		}()
	}
	wg.Wait()

	// Decide in sequential order: the first task that is not an
	// exhaustive failure determines the outcome. An aborted task before
	// the first success means the sequential verdict is unknowable with
	// this budget (or the caller interrupted) — surface that instead of
	// a possibly wrong answer.
	for _, t := range tasks {
		switch t.status {
		case taskSuccess:
			return true, t.cs.witness(), nil
		case taskFailed:
			continue
		default:
			if t.feed != nil && t.feed.interrupted || ctx != nil && ctx.Err() != nil {
				return false, nil, ctx.Err()
			}
			return false, nil, ErrBudget
		}
	}
	return false, nil, nil
}
