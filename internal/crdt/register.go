package crdt

import (
	"fmt"
	"sort"
	"strings"

	"github.com/paper-repro/ccbm/internal/net"
	"github.com/paper-repro/ccbm/internal/vclock"
)

// lwwEff is the effect of a LWWRegister write: a value with a unique
// Lamport timestamp. Concurrent writes commute because both replicas
// keep whichever timestamp is larger.
type lwwEff struct {
	Val   int
	Stamp vclock.Timestamp
}

// LWWRegister is a last-writer-wins register: each write is stamped
// with a (Lamport time, pid) pair and the largest stamp wins. It
// converges for the sequential Register ADT but, like every
// last-writer-wins object, it may drop concurrent writes — the
// MVRegister below keeps them instead.
type LWWRegister struct {
	node
	val int
	cur vclock.Timestamp
}

// NewLWWRegister creates the replica of a last-writer-wins register at
// process id. The initial value is 0 with the zero stamp, which every
// write dominates.
func NewLWWRegister(t net.Transport, id int) *LWWRegister {
	r := &LWWRegister{cur: vclock.Timestamp{VT: 0, PID: -1}}
	r.init(t, id, r.applyEff)
	return r
}

// Write sets the register to v. The local read sees v immediately;
// remote replicas adopt it unless they hold a larger stamp.
func (r *LWWRegister) Write(v int) {
	r.mu.Lock()
	eff := lwwEff{Val: v, Stamp: r.stamp()}
	r.mu.Unlock()
	r.update(eff)
}

func (r *LWWRegister) applyEff(_ int, eff any) {
	e := eff.(lwwEff)
	r.mu.Lock()
	r.witness(e.Stamp)
	if r.cur.Less(e.Stamp) {
		r.cur, r.val = e.Stamp, e.Val
	}
	r.mu.Unlock()
}

// Read returns the value of the largest-stamped write delivered.
func (r *LWWRegister) Read() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.val
}

// Key returns a canonical digest of the observable state.
func (r *LWWRegister) Key() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return fmt.Sprintf("%d@%s", r.val, r.cur)
}

// mvEntry is one currently visible value with the vector stamp of the
// write that produced it.
type mvEntry struct {
	val int
	vc  vclock.VC
}

// MVRegister is a multi-value register: writes that causally follow a
// value replace it, concurrent writes accumulate, and Read returns the
// set of all current (maximal) values. It is the canonical example of
// an object whose convergent state is not a function of the *last*
// update — precisely the gap in causal memory's writes-into semantics
// that the paper's Sec. 2 points at.
//
// The effect of a write is the bare value; its vector stamp is the one
// the causal layer assigns at broadcast. A delivered write supersedes
// exactly the current values its stamp dominates; concurrent values
// are both kept.
type MVRegister struct {
	node
	cur []mvEntry
}

// NewMVRegister creates the replica of a multi-value register at
// process id. Initially the register holds no value and Read returns
// the empty set.
func NewMVRegister(t net.Transport, id int) *MVRegister {
	r := &MVRegister{}
	r.initVC(t, id, r.applyEff)
	return r
}

// Write sets the register to v, superseding every value currently
// visible at this replica.
func (r *MVRegister) Write(v int) { r.update(v) }

func (r *MVRegister) applyEff(_ int, vc vclock.VC, eff any) {
	r.mu.Lock()
	kept := r.cur[:0]
	for _, c := range r.cur {
		if !c.vc.Less(vc) {
			kept = append(kept, c)
		}
	}
	r.cur = append(kept, mvEntry{val: eff.(int), vc: vc})
	r.mu.Unlock()
}

// Read returns the sorted set of currently visible values. Length 1
// means the last writes were totally ordered; length >1 exposes a
// write conflict for the application to resolve.
func (r *MVRegister) Read() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	vals := make([]int, len(r.cur))
	for i, c := range r.cur {
		vals[i] = c.val
	}
	sort.Ints(vals)
	return vals
}

// Key returns a canonical digest of the observable state: the sorted
// multiset of visible values (vector stamps are internal).
func (r *MVRegister) Key() string {
	vals := r.Read()
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprint(v)
	}
	return "{" + strings.Join(parts, ",") + "}"
}
