// Package core is the paper's primary contribution made runnable: a
// wait-free replicated-object runtime for arbitrary abstract data
// types, parameterized by consistency criterion. Every replica holds a
// full copy of each object; operations complete without waiting for any
// other process (Sec. 6.1), queries read local state, updates are
// disseminated by broadcast and applied on delivery.
//
// There is ONE implementation of that construction, Station
// (station.go): many named objects over one broadcast layer, with
// update batching, serving cc/cluster. Replica (this file) is its
// traced one-object view for the paper-level experiments — an
// unbatched Station hosting a single object plus a trace.Recorder — so
// every Prop. 6 / Prop. 7 whole-history test, the simulator and the
// examples exercise the code that serves requests.
//
// The criterion is selected by the delivery discipline and the state
// representation:
//
//   - CC  — causal broadcast, apply on delivery (generalizes Fig. 4
//     from window-stream arrays to any ADT; Prop. 6's proof only uses
//     the causal delivery order and local application, so the
//     construction stays causally consistent for every ADT).
//   - PC  — FIFO broadcast, apply on delivery (pipelined consistency;
//     the PRAM construction).
//   - EC  — unordered reliable broadcast; updates carry origin-assigned
//     Lamport timestamps and are folded in timestamp order, so replicas
//     converge but causality may be violated (eventual consistency
//     without the causal guarantees).
//   - CCv — causal broadcast, updates folded in a shared total order
//     that extends the causal order (generalizes Fig. 5). Where Fig. 5
//     reads a Lamport clock, the total order here is the causal
//     layer's own vector stamp — its coordinate sum, origin as
//     tie-breaker — assigned atomically with the causal ordering
//     decision (see station.go).
//
// SC (sequential consistency) is deliberately not in this list: it
// cannot be wait-free (Sec. 1); see SCReplica.
package core

import (
	"fmt"
	"strings"

	"github.com/paper-repro/ccbm/internal/net"
	"github.com/paper-repro/ccbm/internal/spec"
	"github.com/paper-repro/ccbm/internal/trace"
)

// Mode selects the consistency criterion a replica implements.
type Mode int

// The wait-free modes.
const (
	ModeCC Mode = iota
	ModePC
	ModeEC
	ModeCCv
)

// String returns the criterion abbreviation — the exact spelling the
// checker registry uses.
func (m Mode) String() string {
	switch m {
	case ModeCC:
		return "CC"
	case ModePC:
		return "PC"
	case ModeEC:
		return "EC"
	case ModeCCv:
		return "CCv"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode resolves a criterion abbreviation, case-insensitively, to
// its Mode. Round-tripping through Mode.String canonicalizes the
// spelling.
func ParseMode(s string) (Mode, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "CC":
		return ModeCC, nil
	case "PC":
		return ModePC, nil
	case "EC":
		return ModeEC, nil
	case "CCV":
		return ModeCCv, nil
	}
	return 0, fmt.Errorf("core: unknown mode %q (want CC, PC, EC or CCv)", s)
}

// replicaObject is the fixed name of the one object a Replica hosts on
// its Station.
const replicaObject = "o"

// Replica is one process's copy of a single shared object: a Station
// hosting exactly one object, plus the trace recorder that turns its
// invocations into a history for the checkers. The fold itself — all
// four mode disciplines — lives in Station; Replica adds only the
// paper-level shape (one object, one sequential process, a recorded
// history). Invoke never blocks on communication (wait-freedom), so its
// latency is independent of network delays and of other processes'
// failures.
type Replica struct {
	st  *Station
	rec *trace.Recorder
}

// NewReplica creates the replica for process id over the transport and
// registers its delivery handler. rec may be nil (no recording).
func NewReplica(tr net.Transport, id int, t spec.ADT, mode Mode, rec *trace.Recorder) *Replica {
	st := NewStation(tr, id, mode, StationConfig{}) // unbatched: Invoke flushes synchronously
	// Install the object from the ADT value, not a registry name: t may
	// be parameterised (adt.NewWindowArray(2, 1)). Every replica of the
	// group does this before any traffic, so deliveries never resolve
	// the wire ADT name.
	st.mu.Lock()
	st.createLocked(replicaObject, t.Name(), t)
	st.mu.Unlock()
	return &Replica{st: st, rec: rec}
}

// ID returns the replica's process id.
func (r *Replica) ID() int { return r.st.ID() }

// Mode returns the replica's consistency mode.
func (r *Replica) Mode() Mode { return r.st.Mode() }

// Stats returns a snapshot of the replica's counters.
func (r *Replica) Stats() StationStats { return r.st.Stats() }

// DisableRecording detaches the trace recorder, for long benchmark runs
// whose histories would otherwise grow without bound. Call it before
// invoking operations; it is not synchronized with concurrent Invokes.
func (r *Replica) DisableRecording() { r.rec = nil }

// Invoke executes one operation on the shared object and returns its
// output. Pure queries read the local state; updates are broadcast and
// take effect at every replica upon delivery (immediately at the
// caller). The call never waits for the network.
func (r *Replica) Invoke(in spec.Input) spec.Output {
	out, err := r.st.Invoke(replicaObject, in)
	if err != nil {
		// The object exists since construction and the station is never
		// closed or downed: no error path is reachable.
		panic(err)
	}
	if r.rec != nil {
		r.rec.Record(r.st.ID(), in, out)
	}
	return out
}

// Read is a convenience for query methods without arguments.
func (r *Replica) Read(method string, args ...int) spec.Output {
	return r.Invoke(spec.NewInput(method, args...))
}

// CompactLog garbage-collects the stable prefix of the timestamp log
// and returns the number of entries removed (see Station.Compact: CCv
// only). This is the generic counterpart of Fig. 5's built-in
// truncation to the k newest cells (the window array is, in effect,
// permanently compacted).
func (r *Replica) CompactLog() int { return r.st.Compact() }

// StateKey returns the canonical key of the replica's current local
// state; two replicas with equal keys have converged.
func (r *Replica) StateKey() string {
	key, _ := r.st.StateKey(replicaObject)
	return key
}

// LogLen returns the number of updates in the replica's timestamp log
// (EC/CCv modes).
func (r *Replica) LogLen() int { return r.st.Stats().LogLen }
