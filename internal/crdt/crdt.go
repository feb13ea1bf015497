// Package crdt implements operation-based (commutative) replicated
// data types on top of the reliable causal broadcast of Sec. 6.1.
//
// The paper motivates its eventual-consistency branch with CRDTs [22]
// and the CCI model of collaborative editing [23]: objects whose
// concurrent updates commute converge without synchronisation, and the
// causal order is exactly the delivery discipline they need. Where
// core.ModeCCv realizes causal convergence *generically* — by sorting
// a full operation log along a Lamport total order and replaying it —
// the types in this package realize the same criterion *natively*, one
// ADT at a time, with constant-size effect messages and no replay.
// They are the ablation counterpart to the generic runtime: the
// experiment tables compare the two on the same workloads.
//
// Every type follows the op-based CRDT pattern:
//
//   - a *prepare* phase runs at the origin, reads local state and
//     produces an effect message;
//   - the effect is disseminated by reliable causal broadcast and
//     applied exactly once at every process (including the origin,
//     immediately — operations are wait-free);
//   - concurrent effects commute, so all processes that delivered the
//     same set of effects hold the same state (strong eventual
//     consistency), and since delivery respects the causal order the
//     executions are weakly causally consistent and convergent.
//
// Types: GCounter, PNCounter (counters), LWWRegister, MVRegister
// (registers), ORSet, TwoPhaseSet (sets), ORMap (an observed-remove
// document map), RGA (a replicated sequence for collaborative
// editing), plus a state-based StateGCounter contrasting the
// gossip/merge family. Each exposes a Key method producing a
// canonical digest of its observable state, used by the convergence
// checkers and the experiment harness.
package crdt

import (
	"sync"

	"github.com/paper-repro/ccbm/internal/broadcast"
	"github.com/paper-repro/ccbm/internal/net"
	"github.com/paper-repro/ccbm/internal/vclock"
)

// node is the machinery shared by every replicated type: identity, a
// Lamport clock for unique stamps, and the causal broadcast layer.
// Concrete types embed it and route their effect messages through
// update; the layer calls back into apply (set by init or initVC)
// exactly once per effect, in causal order, serially.
type node struct {
	mu    sync.Mutex
	id    int
	n     int
	clock vclock.Lamport
	bc    *broadcast.Causal
}

// init wires the node to the transport. apply is invoked once per
// effect message, serially, in causal delivery order; it runs with no
// locks held by the node, so implementations take n.mu themselves.
func (n *node) init(t net.Transport, id int, apply func(origin int, eff any)) {
	n.initVC(t, id, func(origin int, _ vclock.VC, eff any) { apply(origin, eff) })
}

// initVC is init for types that also need each effect's causal stamp:
// the vector clock the causal layer assigned at broadcast, under its
// sequence lock, so concurrent updates at one replica get distinct,
// causally ordered stamps.
func (n *node) initVC(t net.Transport, id int, apply broadcast.DeliverVC) {
	n.id = id
	n.n = t.N()
	n.bc = broadcast.NewCausalVC(t, id, apply)
	// CRDT replicas are the anti-entropy users (Sync after partition
	// healing), so they retain their effect log.
	n.bc.EnableResync()
}

// ID returns the identifier of the process this replica runs at.
func (n *node) ID() int { return n.id }

// stamp allocates a fresh globally unique timestamp. Callers must hold
// n.mu.
func (n *node) stamp() vclock.Timestamp {
	return vclock.Timestamp{VT: n.clock.Tick(), PID: n.id}
}

// witness folds a remote stamp into the local Lamport clock so stamps
// allocated later are greater. Callers must hold n.mu.
func (n *node) witness(t vclock.Timestamp) { n.clock.Witness(t.VT) }

// update disseminates an effect message. The causal layer delivers it
// locally before returning (wait-free local visibility) and to every
// non-faulty process eventually. Callers must NOT hold n.mu: local
// delivery re-enters apply.
func (n *node) update(eff any) { n.bc.Broadcast(eff) }

// VC exposes the delivered-count vector of the underlying causal
// layer, used by experiments to measure delivery progress.
func (n *node) VC() vclock.VC { return n.bc.VC() }

// Sync runs anti-entropy: every effect this replica has seen is
// retransmitted (idempotently) to all processes. Call it after a
// network partition heals on transports that lose messages; on
// eventually reliable transports it is never needed.
func (n *node) Sync() { n.bc.Resync() }
