package check

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"github.com/paper-repro/ccbm/internal/history"
)

// The batch engine: stream many histories through a bounded worker
// pool and classify each against every requested criterion, with an
// optional per-criterion wall-clock timeout. This is the scale path
// the cmd tools and the census build on — the per-history exponential
// searches stay single-threaded, and the parallelism is across
// histories, which needs no coordination.

// BatchItem is one history to classify. Index is echoed back in the
// result so streaming consumers can restore input order; Name is free
// text for reporting (file name, enumeration index, ...).
type BatchItem struct {
	Index int
	Name  string
	H     *history.History
}

// CriterionOutcome is the result of one checker on one history.
type CriterionOutcome struct {
	// Satisfied is meaningful only when Err == nil and !TimedOut.
	Satisfied bool
	// TimedOut reports that the per-criterion timeout elapsed before
	// the checker finished.
	TimedOut bool
	// BudgetExceeded reports that the checker ran out of MaxNodes
	// (Err is then a *ErrBudgetExceeded).
	BudgetExceeded bool
	// Err is the checker error, if any (budget, ω-encoding, a
	// cancelled batch context, ...).
	Err error
	// Explored is the number of search-tree nodes the checker visited.
	Explored int64
	// Pruned counts the frames and branches each pruner cut when
	// Options.Prune enabled any (zero otherwise).
	Pruned PruneStats
	// Elapsed is the checker's wall-clock time.
	Elapsed time.Duration
}

// ExtraChecker is a caller-supplied criterion the batch engine runs
// alongside the built-in ones, through the same worker pool and
// timeout machinery. The public facade's registry uses it to dispatch
// user-registered criteria; Fn follows the built-in checkers' contract
// (ctx.Err() on cancellation, ErrNotMemory to skip, ErrBudget wrapping
// on exhaustion).
type ExtraChecker struct {
	Name string
	Fn   func(ctx context.Context, h *history.History, opt Options) (bool, *Witness, error)
}

// BatchResult is the classification of one history.
type BatchResult struct {
	Item BatchItem
	// Outcomes holds one entry per attempted criterion. CM on a
	// non-memory history is skipped entirely (no entry), mirroring
	// Classify.
	Outcomes map[Criterion]CriterionOutcome
	// ExtraOutcomes holds one entry per attempted ExtraChecker, keyed
	// by its name; extras returning ErrNotMemory are skipped like CM.
	ExtraOutcomes map[string]CriterionOutcome
	// Class collects the Satisfied verdicts of the criteria that
	// completed cleanly — the subset of Outcomes usable as a
	// Classification.
	Class Classification
	// LatticeViolations lists the Fig. 1 implication arrows violated by
	// Class (expected empty; non-empty means a checker bug).
	LatticeViolations [][2]Criterion
}

// Err returns the first criterion error in AllCriteria order (then
// ExtraChecker order), nil if every attempted checker completed
// (timeouts are not errors).
func (r *BatchResult) Err() error {
	for _, c := range AllCriteria {
		if o, ok := r.Outcomes[c]; ok && o.Err != nil {
			return o.Err
		}
	}
	for _, o := range r.ExtraOutcomes {
		if o.Err != nil {
			return o.Err
		}
	}
	return nil
}

// BatchOptions tunes ClassifyAll.
type BatchOptions struct {
	// Options is passed to every checker invocation (MaxNodes,
	// Prune, ...). The Stats
	// field must be nil; the engine installs a private one per check
	// and reports the count in CriterionOutcome.Explored.
	Options
	// Workers bounds the number of histories classified concurrently;
	// 0 means GOMAXPROCS.
	Workers int
	// Timeout bounds each (history, criterion) check's wall-clock time;
	// 0 means no timeout. A timed-out check reports TimedOut instead of
	// a verdict: the engine runs the checker under a context deadline,
	// which the search polls every few thousand nodes, so the check
	// returns within its poll interval of the deadline.
	Timeout time.Duration
	// Criteria selects the checkers to run; nil means AllCriteria
	// (with CM auto-skipped on non-memory histories).
	Criteria []Criterion
	// Extra lists caller-defined criteria to run in addition to
	// Criteria.
	Extra []ExtraChecker
}

func (o BatchOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o BatchOptions) criteria() []Criterion {
	if o.Criteria != nil {
		return o.Criteria
	}
	return AllCriteria
}

// classifyOne runs every requested criterion on one item.
func classifyOne(ctx context.Context, it BatchItem, opt BatchOptions) BatchResult {
	res := BatchResult{
		Item:     it,
		Outcomes: make(map[Criterion]CriterionOutcome),
		Class:    make(Classification),
	}
	for _, c := range opt.criteria() {
		out := checkWithTimeout(ctx, opt.Options, opt.Timeout,
			func(ctx context.Context, o Options) (bool, error) {
				ok, _, err := Check(ctx, c, it.H, o)
				return ok, err
			})
		if errors.Is(out.Err, ErrNotMemory) {
			continue // criterion not applicable, mirror Classify
		}
		res.Outcomes[c] = out
		if out.Err == nil && !out.TimedOut {
			res.Class[c] = out.Satisfied
		}
	}
	for _, ex := range opt.Extra {
		fn := ex.Fn
		out := checkWithTimeout(ctx, opt.Options, opt.Timeout,
			func(ctx context.Context, o Options) (bool, error) {
				ok, _, err := fn(ctx, it.H, o)
				return ok, err
			})
		if errors.Is(out.Err, ErrNotMemory) {
			continue
		}
		if res.ExtraOutcomes == nil {
			res.ExtraOutcomes = make(map[string]CriterionOutcome)
		}
		res.ExtraOutcomes[ex.Name] = out
	}
	res.LatticeViolations = VerifyImplications(res.Class)
	return res
}

// checkWithTimeout runs one checker, bounding its wall-clock time with
// a context deadline. The search-based checkers poll the context every
// few thousand nodes, so the call returns within that poll interval of
// the deadline — no helper goroutine is needed. A deadline raised by
// the per-criterion timer reports TimedOut; a cancellation (or earlier
// deadline) of the batch context itself surfaces as the outcome error.
func checkWithTimeout(ctx context.Context, opt Options, timeout time.Duration, fn func(context.Context, Options) (bool, error)) CriterionOutcome {
	start := time.Now()
	stats := &Stats{}
	opt.Stats = stats
	cctx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		cctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	ok, err := fn(cctx, opt)
	timedOut := false
	if timeout > 0 && errors.Is(err, context.DeadlineExceeded) && ctxErr(ctx) == nil {
		// The per-criterion timer fired, not the caller's context.
		ok, err, timedOut = false, nil, true
	}
	return CriterionOutcome{
		Satisfied:      ok,
		TimedOut:       timedOut,
		BudgetExceeded: errors.Is(err, ErrBudget),
		Err:            err,
		Explored:       stats.Nodes,
		Pruned:         stats.Prune,
		Elapsed:        time.Since(start),
	}
}

// ClassifyAll streams items through a bounded worker pool and emits
// one BatchResult per item. The output channel is unordered (use
// BatchItem.Index to restore input order) and is closed once every
// item has been classified. The items channel must be closed by the
// producer; consuming the result channel to the end is required to
// release the workers. Cancelling ctx makes in-flight checks unwind
// within their poll interval; the remaining items still flow through
// (draining the input keeps producers unblocked), each reporting
// ctx.Err() in its outcomes.
func ClassifyAll(ctx context.Context, items <-chan BatchItem, opt BatchOptions) <-chan BatchResult {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make(chan BatchResult, opt.workers())
	var wg sync.WaitGroup
	wg.Add(opt.workers())
	for w := 0; w < opt.workers(); w++ {
		go func() {
			defer wg.Done()
			for it := range items {
				out <- classifyOne(ctx, it, opt)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// ClassifyBatch is ClassifyAll over a slice, returning results in
// input order. Index is overwritten with the slice position.
func ClassifyBatch(ctx context.Context, items []BatchItem, opt BatchOptions) []BatchResult {
	in := make(chan BatchItem)
	go func() {
		for i, it := range items {
			it.Index = i
			in <- it
		}
		close(in)
	}()
	res := make([]BatchResult, len(items))
	for r := range ClassifyAll(ctx, in, opt) {
		res[r.Item.Index] = r
	}
	return res
}
