package checker

import (
	"context"
	"errors"
	"fmt"

	"github.com/paper-repro/ccbm/cc/histories"
	"github.com/paper-repro/ccbm/internal/check"
	"github.com/paper-repro/ccbm/internal/history"
)

// Item is one history submitted to a Classifier. Index is echoed back
// so streaming consumers can restore input order; Name is free text
// for reporting (a file name, an enumeration index, ...).
type Item struct {
	Index int
	Name  string
	H     *histories.History
}

// ItemResult is the classification of one Item: one Result per
// attempted criterion, keyed by registered name. Memory-only criteria
// are skipped (no entry) on non-memory histories.
type ItemResult struct {
	Item Item
	// Results holds one entry per attempted criterion.
	Results map[string]*Result
	// Profile lists the satisfied built-in criteria, weakest first —
	// the history's position in the paper's Fig. 1 hierarchy.
	Profile []string
	// LatticeViolations lists the Fig. 1 implication arrows violated
	// by the verdicts (expected empty; non-empty means a checker bug).
	LatticeViolations [][2]string
}

// Err returns the first hard error among the results, in registry
// order. Budget exhaustion and timeouts are reported data (see
// Result.Exhausted), not errors; a cancelled batch context does
// surface here.
func (r *ItemResult) Err() error {
	for _, name := range Names() {
		if res, ok := r.Results[name]; ok && res.Err != nil && res.Exhausted != CauseBudget {
			return res.Err
		}
	}
	return nil
}

// Classifier checks histories against a set of registered criteria —
// one at a time or as a streaming batch over a bounded worker pool.
// Configure it once with the same functional options Check takes,
// plus WithWorkers and WithCriteria:
//
//	cl := checker.NewClassifier(
//		checker.WithCriteria("SC", "CC", "CCv"),
//		checker.WithTimeout(2*time.Second),
//	)
//	out, err := cl.Stream(ctx, items)
type Classifier struct {
	p Params
}

// NewClassifier builds a Classifier from functional options.
func NewClassifier(opts ...Option) *Classifier {
	return &Classifier{p: newParams(opts)}
}

// split resolves the configured criterion names into the engine's
// built-in enum values and ExtraChecker adapters for user-registered
// criteria, preserving registry order when no subset was configured.
func (cl *Classifier) split() ([]check.Criterion, []check.ExtraChecker, error) {
	names := cl.p.Criteria
	if names == nil {
		names = Names()
	}
	var builtins []check.Criterion
	var extras []check.ExtraChecker
	for _, name := range names {
		if c, ok := builtinOf[name]; ok {
			builtins = append(builtins, c)
			continue
		}
		crit, ok := Lookup(name)
		if !ok {
			return nil, nil, fmt.Errorf("checker: unknown criterion %q (registered: %v)", name, Names())
		}
		fn := crit.Func
		p := cl.p
		extras = append(extras, check.ExtraChecker{
			Name: crit.Name,
			Fn: func(ctx context.Context, h *history.History, o check.Options) (bool, *check.Witness, error) {
				q := p
				q.Budget, q.stats = o.MaxNodes, o.Stats
				return fn(ctx, h, q)
			},
		})
	}
	if builtins == nil {
		// An explicit empty built-in set (extras only): the engine
		// treats nil Criteria as "all", so pin an empty, non-nil slice.
		builtins = []check.Criterion{}
	}
	return builtins, extras, nil
}

// Stream classifies a sequence of items through the engine's bounded
// worker pool, emitting one ItemResult per item as it completes. The
// output channel is unordered (use Item.Index to restore input order)
// and closes once every item is classified; the caller must close the
// input channel and drain the output. Cancelling ctx makes in-flight
// checks unwind within their poll interval, the remaining items
// flowing through with the context error in their results.
func (cl *Classifier) Stream(ctx context.Context, items <-chan Item) (<-chan ItemResult, error) {
	builtins, extras, err := cl.split()
	if err != nil {
		return nil, err
	}
	in := make(chan check.BatchItem)
	go func() {
		defer close(in)
		for it := range items {
			in <- check.BatchItem{Index: it.Index, Name: it.Name, H: it.H}
		}
	}()
	results := check.ClassifyAll(ctx, in, check.BatchOptions{
		Options:  cl.p.engine(),
		Workers:  cl.p.Workers,
		Timeout:  cl.p.Timeout,
		Criteria: builtins,
		Extra:    extras,
	})
	out := make(chan ItemResult)
	go func() {
		defer close(out)
		for r := range results {
			out <- convertBatchResult(r)
		}
	}()
	return out, nil
}

// Batch is Stream over a slice, returning results in input order
// (Item.Index is overwritten with the slice position).
func (cl *Classifier) Batch(ctx context.Context, items []Item) ([]ItemResult, error) {
	in := make(chan Item)
	out, err := cl.Stream(ctx, in)
	if err != nil {
		return nil, err
	}
	go func() {
		defer close(in)
		for i, it := range items {
			it.Index = i
			in <- it
		}
	}()
	res := make([]ItemResult, len(items))
	for r := range out {
		res[r.Item.Index] = r
	}
	return res, nil
}

// Classify runs the configured criteria on a single history.
func (cl *Classifier) Classify(ctx context.Context, h *histories.History) (*ItemResult, error) {
	res, err := cl.Batch(ctx, []Item{{H: h}})
	if err != nil {
		return nil, err
	}
	return &res[0], nil
}

func convertBatchResult(r check.BatchResult) ItemResult {
	ir := ItemResult{
		Item:    Item{Index: r.Item.Index, Name: r.Item.Name, H: r.Item.H},
		Results: make(map[string]*Result, len(r.Outcomes)+len(r.ExtraOutcomes)),
	}
	for c, o := range r.Outcomes {
		ir.Results[c.String()] = outcomeResult(c.String(), o)
	}
	for name, o := range r.ExtraOutcomes {
		ir.Results[name] = outcomeResult(name, o)
	}
	for _, c := range check.AllCriteria {
		if r.Class[c] {
			ir.Profile = append(ir.Profile, c.String())
		}
	}
	for _, v := range r.LatticeViolations {
		ir.LatticeViolations = append(ir.LatticeViolations, [2]string{v[0].String(), v[1].String()})
	}
	return ir
}

// outcomeResult folds one engine outcome into the unified Result.
func outcomeResult(name string, o check.CriterionOutcome) *Result {
	res := &Result{
		Criterion: name,
		Satisfied: o.Satisfied,
		Explored:  o.Explored,
		Pruned:    o.Pruned,
		Elapsed:   o.Elapsed,
		Err:       o.Err,
	}
	switch {
	case o.TimedOut:
		res.Exhausted = CauseTimeout
	case o.BudgetExceeded:
		res.Exhausted = CauseBudget
	case errors.Is(o.Err, context.DeadlineExceeded):
		res.Exhausted = CauseTimeout
	case errors.Is(o.Err, context.Canceled):
		res.Exhausted = CauseCanceled
	}
	return res
}
