package checker

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/paper-repro/ccbm/cc/histories"
	"github.com/paper-repro/ccbm/internal/check"
)

// Sentinel errors, re-exported from the engine so facade users can
// errors.Is against them without reaching into internal/.
var (
	// ErrBudget reports that a search exceeded its node budget.
	ErrBudget = check.ErrBudget
	// ErrNotMemory reports that a memory-only criterion was applied to
	// a history over a non-memory ADT.
	ErrNotMemory = check.ErrNotMemory
	// ErrOmegaUpdate reports an ω-flagged update operation; the
	// encoding only supports repeating pure queries.
	ErrOmegaUpdate = check.ErrOmegaUpdate
	// ErrDuplicateValues reports that the session-guarantee checkers
	// saw two writes of the same value to one register.
	ErrDuplicateValues = check.ErrDuplicateValues
)

// DefaultBudget is the default search-node budget of every checker.
const DefaultBudget = check.DefaultMaxNodes

// Params are the resolved parameters of a checker invocation, built
// from functional options. User-defined CheckFuncs receive them and
// should honor Budget; Timeout is already applied (as
// a context deadline) by the time a CheckFunc runs.
type Params struct {
	// Budget bounds the search-tree nodes explored; 0 means
	// DefaultBudget.
	Budget int
	// Timeout bounds one check's wall-clock time; 0 means none. Check
	// applies it as a context deadline, which the searches poll every
	// few thousand nodes.
	Timeout time.Duration
	// Workers bounds the histories classified concurrently by a
	// Classifier; 0 means GOMAXPROCS. Ignored by Check.
	Workers int
	// Criteria selects the criteria a Classifier runs, by registered
	// name; nil means all registered. Ignored by Check.
	Criteria []string
	// Pruning enables the DPOR-style pruners of the causal-family
	// searches (canonical state fingerprints, sleep-set exclusion,
	// symmetry quotient). Verdicts are identical to the exhaustive
	// search; witnesses may be renamed equivalents when the history has
	// identical-program processes.
	Pruning bool

	stats *check.Stats
}

// Option tunes Check, Linearizable, Sessions or NewClassifier.
type Option func(*Params)

// WithBudget bounds the number of search-tree nodes one check may
// explore; exceeding it yields a Result with Exhausted == CauseBudget.
func WithBudget(nodes int) Option { return func(p *Params) { p.Budget = nodes } }

// WithParallelism is a no-op: the search of one history is always
// sequential. Across histories, a Classifier runs WithWorkers checks
// at once.
//
// Deprecated: drop the option; it has no effect.
func WithParallelism(n int) Option { return func(*Params) {} }

// WithTimeout bounds one check's wall-clock time via a context
// deadline; expiry yields a Result with Exhausted == CauseTimeout.
func WithTimeout(d time.Duration) Option { return func(p *Params) { p.Timeout = d } }

// WithWorkers bounds the number of histories a Classifier checks
// concurrently (default GOMAXPROCS).
func WithWorkers(n int) Option { return func(p *Params) { p.Workers = n } }

// WithCriteria selects the criteria a Classifier runs, by registered
// name (default: all registered criteria).
func WithCriteria(names ...string) Option {
	return func(p *Params) { p.Criteria = append([]string(nil), names...) }
}

// WithPruning toggles the DPOR-style pruning layer of the
// causal-family searches (default off). Pruned searches return the
// same verdicts as exhaustive ones while exploring fewer nodes;
// per-pruner counters are surfaced as Result.Pruned. Witnesses are
// bit-identical except when the history has identical-program
// processes, where the symmetry quotient may return a renamed (still
// valid) equivalent.
func WithPruning(on bool) Option { return func(p *Params) { p.Pruning = on } }

// CountNodes adds n to the invocation's explored-node statistic
// (surfaced as Result.Explored). The built-in criteria report
// automatically; user-defined CheckFuncs may call it to participate.
func (p Params) CountNodes(n int64) {
	if p.stats != nil {
		p.stats.Nodes += n
	}
}

// engine translates the public parameters into engine options.
func (p Params) engine() check.Options {
	opt := check.Options{MaxNodes: p.Budget, Stats: p.stats}
	if p.Pruning {
		opt.Prune = check.PruneAll()
	}
	return opt
}

func newParams(opts []Option) Params {
	var p Params
	for _, o := range opts {
		o(&p)
	}
	return p
}

// Cause says why a check ended without reaching a verdict.
type Cause string

const (
	// CauseBudget: the node budget (WithBudget) ran out.
	CauseBudget Cause = "budget"
	// CauseTimeout: a deadline — WithTimeout's or the caller
	// context's — expired.
	CauseTimeout Cause = "timeout"
	// CauseCanceled: the caller's context was cancelled.
	CauseCanceled Cause = "canceled"
)

// Result is the unified outcome of one criterion on one history.
type Result struct {
	// Criterion is the registered name of the criterion checked.
	Criterion string
	// Satisfied is the verdict; meaningful only when Err == nil and
	// Exhausted is empty.
	Satisfied bool
	// Witness justifies a positive verdict (per-criterion shape: a
	// linearization, per-process or per-event linearizations, a causal
	// order); nil otherwise.
	Witness *Witness
	// Explored is the number of search-tree nodes visited.
	Explored int64
	// Pruned counts the frames and branches each pruner cut, when
	// pruning was enabled (WithPruning); zero otherwise.
	Pruned PruneStats
	// Elapsed is the check's wall-clock time.
	Elapsed time.Duration
	// Exhausted is non-empty when the search ended without a verdict:
	// node budget ran out, deadline expired, or context cancelled.
	Exhausted Cause
	// Err is the error the checker returned, if any: the budget error
	// (Exhausted == CauseBudget), the context error (CauseTimeout /
	// CauseCanceled, unless the timeout came from WithTimeout, which
	// is reported in Exhausted alone), or a hard error such as
	// ErrNotMemory or a malformed history.
	Err error
}

// Check runs one registered criterion on one history.
//
//	res, err := checker.Check(ctx, "CC", h, checker.WithTimeout(2*time.Second))
//
// The criterion is resolved in the registry (built-ins plus anything
// the caller Registered). Cancellation and deadlines are idiomatic:
// the searches poll ctx every few thousand explored nodes and unwind
// with ctx.Err(). Check returns a non-nil Result whenever the
// criterion ran, even on error — budget exhaustion, a WithTimeout
// expiry or a cancellation still carries the explored-node count,
// elapsed time and the Exhausted cause. Err is nil only for a clean
// verdict, so `if err != nil` remains the simple calling convention;
// callers that want to distinguish exhaustion from hard errors read
// res.Exhausted or errors.Is(err, checker.ErrBudget).
func Check(ctx context.Context, criterion string, h *histories.History, opts ...Option) (*Result, error) {
	c, ok := Lookup(criterion)
	if !ok {
		return nil, fmt.Errorf("checker: unknown criterion %q (registered: %s)",
			criterion, strings.Join(Names(), ", "))
	}
	return runCriterion(ctx, c, h, newParams(opts))
}

// runCriterion drives one CheckFunc under the resolved parameters and
// folds its outcome into a Result.
func runCriterion(ctx context.Context, c Criterion, h *histories.History, p Params) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	stats := &check.Stats{}
	p.stats = stats
	cctx := ctx
	if p.Timeout > 0 {
		var cancel context.CancelFunc
		cctx, cancel = context.WithTimeout(ctx, p.Timeout)
		defer cancel()
	}
	start := time.Now()
	ok, w, err := c.Func(cctx, h, p)
	res := &Result{
		Criterion: c.Name,
		Satisfied: ok,
		Witness:   w,
		Explored:  stats.Nodes,
		Pruned:    stats.Prune,
		Elapsed:   time.Since(start),
		Err:       err,
	}
	if err == nil {
		return res, nil
	}
	res.Satisfied, res.Witness = false, nil
	switch {
	case errors.Is(err, ErrBudget):
		res.Exhausted = CauseBudget
	case errors.Is(err, context.DeadlineExceeded):
		res.Exhausted = CauseTimeout
		if p.Timeout > 0 && ctx.Err() == nil {
			// WithTimeout's own deadline, not the caller's: reported in
			// Exhausted, not as an error.
			res.Err = nil
			return res, nil
		}
	case errors.Is(err, context.Canceled):
		res.Exhausted = CauseCanceled
	}
	return res, err
}
