package broadcast

import (
	"sort"
	"sync"

	"github.com/paper-repro/ccbm/internal/net"
	"github.com/paper-repro/ccbm/internal/vclock"
)

// Total is Lamport-timestamp total-order broadcast (the classic
// ISIS-style algorithm): every process delivers every message, all in
// the same total order, which moreover extends the causal order.
//
// Unlike the causal layer, Total is NOT wait-free: a message is held
// until an acknowledgement bearing a larger timestamp has been seen
// from every other process, so a single crashed or disconnected process
// blocks delivery forever — exactly the impossibility that motivates
// the paper's weak criteria (CAP, Sec. 1; Attiya-Welch for SC). It is
// provided only for the sequentially consistent baseline and the
// consensus-number demonstration, both of which assume a crash-free
// run.
type Total struct {
	mu       sync.Mutex
	fifo     *FIFO
	id       int
	n        int
	clock    vclock.Lamport
	pending  []totPending
	lastSeen []vclock.Timestamp
	deliver  Deliver
}

type totMsg struct {
	TS      vclock.Timestamp
	Ack     bool
	Payload any
}

type totPending struct {
	ts      vclock.Timestamp
	origin  int
	payload any
}

// NewTotal creates the layer for process id.
func NewTotal(t net.Transport, id int, d Deliver) *Total {
	tot := &Total{
		id:       id,
		n:        t.N(),
		lastSeen: make([]vclock.Timestamp, t.N()),
		deliver:  d,
	}
	for i := range tot.lastSeen {
		tot.lastSeen[i] = vclock.Timestamp{VT: 0, PID: i}
	}
	tot.fifo = NewFIFO(t, id, tot.onDeliver)
	return tot
}

// Broadcast implements Broadcaster. The call itself does not wait;
// delivery (including local delivery) happens once every process has
// acknowledged, so unlike the other layers local delivery is deferred.
func (tot *Total) Broadcast(payload any) { tot.send(false, payload) }

// send stamps and broadcasts a message or an acknowledgement. The
// Lamport tick is taken inside the FIFO layer's sequence lock, so this
// process's stamps leave in FIFO sequence order: a receiver that has
// seen stamp s from p has already delivered every message p stamped
// below s, which is what makes lastSeen a stability bound. Lock order:
// relCore.mu, then Total.mu.
func (tot *Total) send(ack bool, payload any) {
	tot.fifo.core.broadcastWith(func(int) (vclock.VC, any) {
		tot.mu.Lock()
		defer tot.mu.Unlock()
		return nil, totMsg{TS: vclock.Timestamp{VT: tot.clock.Tick(), PID: tot.id}, Ack: ack, Payload: payload}
	})
}

func (tot *Total) onDeliver(origin int, payload any) {
	m := payload.(totMsg)
	var ready []totPending
	ack := false
	tot.mu.Lock()
	tot.clock.Witness(m.TS.VT)
	if tot.lastSeen[origin].Less(m.TS) {
		tot.lastSeen[origin] = m.TS
	}
	if !m.Ack {
		tot.pending = append(tot.pending, totPending{ts: m.TS, origin: origin, payload: m.Payload})
		sort.Slice(tot.pending, func(i, j int) bool { return tot.pending[i].ts.Less(tot.pending[j].ts) })
		ack = origin != tot.id
	}
	ready = tot.drainLocked()
	tot.mu.Unlock()
	if ack {
		tot.send(true, nil)
	}
	for _, p := range ready {
		tot.deliver(p.origin, p.payload)
	}
}

// drainLocked pops every pending message that is stable: it has the
// smallest timestamp and every other process has been seen past it.
func (tot *Total) drainLocked() []totPending {
	var ready []totPending
	for len(tot.pending) > 0 {
		head := tot.pending[0]
		stable := true
		for q := 0; q < tot.n; q++ {
			if q == head.origin {
				continue
			}
			if !head.ts.Less(tot.lastSeen[q]) {
				stable = false
				break
			}
		}
		if !stable {
			break
		}
		tot.pending = tot.pending[1:]
		ready = append(ready, head)
	}
	return ready
}
