package core

import (
	"sync"

	"github.com/paper-repro/ccbm/internal/broadcast"
	"github.com/paper-repro/ccbm/internal/net"
	"github.com/paper-repro/ccbm/internal/spec"
	"github.com/paper-repro/ccbm/internal/trace"
)

// SCReplica implements sequential consistency with the classic
// "slow writes, fast reads" construction: updates go through
// total-order broadcast and the invoking process WAITS for its own
// update to be delivered; pure queries read the local state
// immediately. Because the total order extends every process's program
// order and reads are inserted at their process's current position,
// the resulting histories are sequentially consistent.
//
// This replica is intentionally not wait-free — the wait on the total
// order is exactly the cost the paper's Sec. 1 attributes to strong
// criteria (and the reason SC cannot survive partitions). Use it only
// on the live transport in crash-free runs; on the deterministic
// simulator the wait would deadlock the single-threaded event loop.
type SCReplica struct {
	mu      sync.Mutex
	applied *sync.Cond
	id      int
	t       spec.ADT
	bc      broadcast.Broadcaster
	rec     *trace.Recorder
	state   spec.State
	issued  int // own updates broadcast
	done    int // own updates delivered
	ownOuts []spec.Output
}

// NewSCReplica creates the sequentially consistent replica for process
// id and registers it with the transport.
func NewSCReplica(tr net.Transport, id int, t spec.ADT, rec *trace.Recorder) *SCReplica {
	r := &SCReplica{id: id, t: t, rec: rec, state: t.Init()}
	r.applied = sync.NewCond(&r.mu)
	r.bc = broadcast.NewTotal(tr, id, r.onDeliver)
	return r
}

// ID returns the replica's process id.
func (r *SCReplica) ID() int { return r.id }

// Invoke executes one operation. Updates block until globally ordered.
func (r *SCReplica) Invoke(in spec.Input) spec.Output {
	var out spec.Output
	if r.t.IsUpdate(in) {
		r.mu.Lock()
		r.issued++
		target := r.issued
		r.mu.Unlock()
		r.bc.Broadcast(in)
		r.mu.Lock()
		for r.done < target {
			r.applied.Wait()
		}
		out = r.ownOuts[0]
		r.ownOuts = r.ownOuts[1:]
		r.mu.Unlock()
	} else {
		r.mu.Lock()
		_, out = r.t.Step(r.state, in)
		r.mu.Unlock()
	}
	if r.rec != nil {
		r.rec.Record(r.id, in, out)
	}
	return out
}

func (r *SCReplica) onDeliver(origin int, payload any) {
	in, ok := payload.(spec.Input)
	if !ok {
		return
	}
	r.mu.Lock()
	var out spec.Output
	r.state, out = r.t.Step(r.state, in)
	if origin == r.id {
		r.ownOuts = append(r.ownOuts, out)
		r.done++
		r.applied.Broadcast()
	}
	r.mu.Unlock()
}

// StateKey returns the canonical key of the current local state.
func (r *SCReplica) StateKey() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state.Key()
}
