package check

import "context"

// Cancellation of a running search. A search counts its node budget
// down in a plain int and stops when it goes negative. When the caller's
// context is cancellable, the countdown is instead fed in chunks of
// feederChunk nodes by a feeder, which polls ctx.Err() before handing
// out each chunk; the total handed out is exactly MaxNodes, so the
// point at which the budget runs out is the same either way.

// feederChunk is the number of nodes the feeder hands out at a time,
// which bounds the cancellation latency (ctx is polled once per chunk).
const feederChunk = 4096

// feeder tops a search's countdown back up from the nodes not yet
// handed out, as long as the caller's context is live. A nil feeder
// (an uncancellable context) refuses every refill, which leaves the
// classic "count down from MaxNodes and stop" behaviour.
type feeder struct {
	ctx    context.Context
	left   int // budget not yet handed to the countdown
	budget *int

	interrupted bool
}

// newFeeder routes a budget of total nodes through the countdown at
// *budget, which must start at zero.
func newFeeder(ctx context.Context, total int, budget *int) *feeder {
	return &feeder{ctx: ctx, left: total, budget: budget}
}

// refill is called when the countdown dips below zero; it reports
// whether the search may continue. On refusal the budget stays
// negative and the search unwinds (without writing memo entries, since
// those writes are guarded by a non-negative budget).
func (f *feeder) refill() bool {
	if f == nil || f.interrupted {
		return false
	}
	if f.ctx.Err() != nil {
		f.interrupted = true
		return false
	}
	if f.left <= 0 {
		return false
	}
	g := min(f.left, feederChunk)
	f.left -= g
	*f.budget += g
	return true
}

// wasInterrupted reports whether the caller's context stopped the
// search; nil-safe for searches without a feeder.
func (f *feeder) wasInterrupted() bool { return f != nil && f.interrupted }

// spentNodes computes how many nodes a search consumed out of an
// initial budget, given its countdown and its feeder (nil when none),
// clamped to [0, initial]. Shared by searchRun and the causal searcher
// so the Explored statistic is accounted identically everywhere.
func spentNodes(initial int, f *feeder, local int) int64 {
	left := local
	if f != nil {
		left = f.left + max(local, 0)
	}
	return int64(min(max(initial-left, 0), initial))
}
