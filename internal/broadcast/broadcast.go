// Package broadcast implements the communication stack of Sec. 6.1 on
// top of net.Transport: uniform reliable broadcast (by flooding),
// FIFO-order broadcast, reliable causal-order broadcast (vector-clock
// delivery condition), and a Lamport-timestamp total-order broadcast
// used only by the sequentially consistent baseline and the consensus
// demonstration (total order is not wait-free implementable; the
// paper's algorithms use only the causal layer).
//
// The causal layer provides exactly the paper's four properties:
// validity (only broadcast messages are delivered), uniform reliability
// (if any process delivers m, every non-faulty process eventually
// delivers m — achieved by flooding), immediate local delivery, and
// causal order (no process delivers m before m' when m was broadcast
// after the broadcaster delivered m').
package broadcast

import (
	"sync"

	"github.com/paper-repro/ccbm/internal/net"
	"github.com/paper-repro/ccbm/internal/vclock"
)

// Deliver consumes a delivered application payload; origin is the
// broadcasting process.
type Deliver func(origin int, payload any)

// DeliverVC is Deliver plus the message's causal vector stamp. The
// stamp is assigned atomically with the causal ordering decision, so a
// consumer that derives a total order from it (e.g. the CCv runtime's
// timestamp order: the stamp's coordinate sum, origin-tie-broken) gets
// an order that provably extends causality — with no window between an
// application-level clock read and the broadcast, which on the live
// transport would race concurrent deliveries.
type DeliverVC func(origin int, vc vclock.VC, payload any)

// Broadcaster is the interface shared by all layers.
type Broadcaster interface {
	// Broadcast disseminates the payload to all processes, delivering
	// locally before returning (wait-free: it never waits for remote
	// progress).
	Broadcast(payload any)
}

// msgID identifies a broadcast uniquely.
type msgID struct {
	Origin int
	Seq    int
}

// outQueue serializes delivery callbacks: ordering layers compute
// ready-lists under their state lock, but invoking the application
// callback under that lock would deadlock on re-entrant broadcasts
// (e.g. the total-order layer acknowledging from inside a delivery),
// while invoking it outside the lock would let two concurrent drainers
// (the broadcasting goroutine and the transport's mailbox goroutine)
// interleave deliveries out of order. The queue guarantees the
// callback sees deliveries exactly in enqueue order: whichever
// goroutine finds the queue idle becomes the single drainer.
type outQueue struct {
	mu       sync.Mutex
	queue    []delivery
	draining bool
	out      DeliverVC
}

// plain adapts a stamp-less Deliver to the queue's callback type.
func plain(d Deliver) DeliverVC {
	return func(origin int, _ vclock.VC, payload any) { d(origin, payload) }
}

type delivery struct {
	origin  int
	vc      vclock.VC
	payload any
}

// enqueue appends deliveries without draining. Layers that compute
// ready-lists from more than one goroutine (FIFO and Causal: the
// broadcasting goroutine and the transport's) must call it while still
// holding their state lock — so the outQueue order always matches the
// order the ordering decision was made — and drain after unlocking.
// Enqueueing after the unlock lets a later ready list overtake an
// earlier one.
func (q *outQueue) enqueue(ds []delivery) {
	q.mu.Lock()
	q.queue = append(q.queue, ds...)
	q.mu.Unlock()
}

// drain invokes the callback for every queued delivery, in enqueue
// order, unless another goroutine already is.
func (q *outQueue) drain() {
	q.mu.Lock()
	if q.draining {
		q.mu.Unlock()
		return
	}
	q.draining = true
	for len(q.queue) > 0 {
		d := q.queue[0]
		q.queue = q.queue[1:]
		q.mu.Unlock()
		q.out(d.origin, d.vc, d.payload)
		q.mu.Lock()
	}
	q.draining = false
	q.mu.Unlock()
}

// dispatch enqueues deliveries and drains the queue.
func (q *outQueue) dispatch(ds []delivery) {
	q.enqueue(ds)
	q.drain()
}

// envelope is the wire format shared by all layers.
type envelope struct {
	ID      msgID
	VC      vclock.VC // causal layer only
	Payload any
}

// relCore is the flooding dissemination core shared by every layer: it
// guarantees that every envelope broadcast or received by a live
// process reaches all live connected processes exactly once, in
// arbitrary order. Layers attach their ordering discipline via the
// onEnv hook, which is invoked once per envelope (sequentially for a
// given process).
type relCore struct {
	mu     sync.Mutex
	t      net.Transport
	id     int
	seq    int
	seen   map[msgID]bool
	retain bool       // keep the seen-log for anti-entropy resync
	log    []envelope // every envelope seen (only when retain is set)
	onEnv  func(envelope)
}

func newRelCore(t net.Transport, id int, onEnv func(envelope)) *relCore {
	c := &relCore{t: t, id: id, seen: make(map[msgID]bool), onEnv: onEnv}
	t.Register(id, c.onReceive)
	return c
}

// enableResync turns on envelope retention. Retention costs memory
// proportional to the whole communication history, so it is opt-in:
// long-lived replicas that never face message loss (reliable
// transports) should leave it off. Call it before any traffic — only
// envelopes seen after the call are retransmittable.
func (c *relCore) enableResync() {
	c.mu.Lock()
	c.retain = true
	c.mu.Unlock()
}

// resync re-floods every envelope this process has ever seen. The
// dissemination layer assumes eventually reliable links (Sec. 6.1);
// on transports that lose messages during partitions, calling resync
// after healing restores that assumption by retransmission —
// anti-entropy. Duplicate deliveries are impossible (receivers dedup
// by message id), and the ordering layers are unaffected because they
// already tolerate arbitrary arrival orders.
func (c *relCore) resync() {
	c.mu.Lock()
	if !c.retain {
		c.mu.Unlock()
		panic("broadcast: Resync requires EnableResync before any traffic")
	}
	pending := make([]envelope, len(c.log))
	copy(pending, c.log)
	c.mu.Unlock()
	for _, env := range pending {
		c.fanout(env)
	}
}

// broadcast stamps, floods and locally delivers a new envelope.
func (c *relCore) broadcast(vc vclock.VC, payload any) {
	c.broadcastWith(func(int) (vclock.VC, any) { return vc, payload })
}

// broadcastWith is broadcast with the stamp and payload built by mk
// from the sequence number, under the sequence lock, so whatever mk
// stamps is ordered like the sequence numbers. mk may take its layer's
// lock: the lock order is relCore.mu before any layer lock, and no
// layer calls into relCore holding its own.
func (c *relCore) broadcastWith(mk func(seq int) (vclock.VC, any)) {
	c.mu.Lock()
	c.seq++
	vc, payload := mk(c.seq)
	env := envelope{ID: msgID{Origin: c.id, Seq: c.seq}, VC: vc, Payload: payload}
	c.seen[env.ID] = true
	if c.retain {
		c.log = append(c.log, env)
	}
	c.mu.Unlock()
	c.fanout(env)
	// Immediate local delivery (Sec. 6.1, property 3).
	c.onEnv(env)
}

func (c *relCore) fanout(env envelope) {
	for q := 0; q < c.t.N(); q++ {
		if q != c.id {
			c.t.Send(c.id, q, env)
		}
	}
}

func (c *relCore) onReceive(_ int, payload any) {
	env, ok := payload.(envelope)
	if !ok {
		return
	}
	c.mu.Lock()
	if c.seen[env.ID] {
		c.mu.Unlock()
		return
	}
	c.seen[env.ID] = true
	if c.retain {
		c.log = append(c.log, env)
	}
	c.mu.Unlock()
	// Forward before handling (flooding): even if this process stops
	// right after delivering, others still learn the message, giving
	// uniform reliability under crash of the origin.
	c.fanout(env)
	c.onEnv(env)
}

// Reliable is unordered uniform reliable broadcast. It is the delivery
// discipline of the eventual-consistency baseline.
type Reliable struct {
	core *relCore
	out  *outQueue
}

// NewReliable creates the layer for process id and registers it with
// the transport.
func NewReliable(t net.Transport, id int, d Deliver) *Reliable {
	r := &Reliable{out: &outQueue{out: plain(d)}}
	r.core = newRelCore(t, id, func(env envelope) {
		r.out.dispatch([]delivery{{origin: env.ID.Origin, payload: env.Payload}})
	})
	return r
}

// Broadcast implements Broadcaster.
func (r *Reliable) Broadcast(payload any) { r.core.broadcast(nil, payload) }

// FIFO delivers each origin's messages in broadcast order (PRAM's
// communication layer), buffering out-of-order arrivals.
type FIFO struct {
	mu   sync.Mutex
	core *relCore
	next []int
	hold map[msgID]envelope
	out  *outQueue
}

// NewFIFO creates the layer for process id.
func NewFIFO(t net.Transport, id int, d Deliver) *FIFO {
	f := &FIFO{next: make([]int, t.N()), hold: make(map[msgID]envelope), out: &outQueue{out: plain(d)}}
	for i := range f.next {
		f.next[i] = 1
	}
	f.core = newRelCore(t, id, f.onEnv)
	return f
}

// Broadcast implements Broadcaster.
func (f *FIFO) Broadcast(payload any) { f.core.broadcast(nil, payload) }

func (f *FIFO) onEnv(env envelope) {
	f.mu.Lock()
	f.hold[env.ID] = env
	var ready []delivery
	for {
		progress := false
		for origin := range f.next {
			id := msgID{Origin: origin, Seq: f.next[origin]}
			if e, ok := f.hold[id]; ok {
				delete(f.hold, id)
				f.next[origin]++
				ready = append(ready, delivery{origin: e.ID.Origin, payload: e.Payload})
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	f.out.enqueue(ready)
	f.mu.Unlock()
	f.out.drain()
}

// Causal is reliable causal-order broadcast: a message is delivered
// only after every message its broadcaster had delivered when it
// broadcast (the Birman-Schiper-Stephenson vector-clock condition).
type Causal struct {
	mu   sync.Mutex
	core *relCore
	id   int
	vc   vclock.VC // per-origin count of causally delivered messages
	hold []envelope
	out  *outQueue
}

// NewCausal creates the layer for process id.
func NewCausal(t net.Transport, id int, d Deliver) *Causal {
	return NewCausalVC(t, id, plain(d))
}

// NewCausalVC creates the layer for process id with a delivery
// callback that also receives each message's causal stamp (see
// DeliverVC).
func NewCausalVC(t net.Transport, id int, d DeliverVC) *Causal {
	c := &Causal{id: id, vc: vclock.New(t.N()), out: &outQueue{out: d}}
	c.core = newRelCore(t, id, c.onEnv)
	return c
}

// Broadcast implements Broadcaster. The message carries the vector
// clock it must be delivered at: the broadcaster's delivered-count
// vector with its own entry set to the message's sequence number, both
// read under the sequence lock, so concurrent broadcasts take distinct
// stamps even while their local deliveries are pending.
func (c *Causal) Broadcast(payload any) {
	c.core.broadcastWith(func(seq int) (vclock.VC, any) {
		c.mu.Lock()
		stamp := c.vc.Clone()
		c.mu.Unlock()
		stamp[c.id] = seq
		return stamp, payload
	})
}

func (c *Causal) onEnv(env envelope) {
	var ready []delivery
	c.mu.Lock()
	c.hold = append(c.hold, env)
	for {
		progress := false
		for i := 0; i < len(c.hold); i++ {
			e := c.hold[i]
			if vclock.CausallyReady(e.VC, c.vc, e.ID.Origin) {
				c.vc[e.ID.Origin]++
				ready = append(ready, delivery{origin: e.ID.Origin, vc: e.VC, payload: e.Payload})
				c.hold = append(c.hold[:i], c.hold[i+1:]...)
				progress = true
				i--
			}
		}
		if !progress {
			break
		}
	}
	c.out.enqueue(ready)
	c.mu.Unlock()
	c.out.drain()
}

// VC returns a snapshot of the layer's delivered-count vector, used by
// experiments to measure delivery progress.
func (c *Causal) VC() vclock.VC {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.vc.Clone()
}

// EnableResync turns on envelope retention for anti-entropy (memory
// grows with the communication history; opt-in). Call before any
// traffic.
func (c *Causal) EnableResync() { c.core.enableResync() }

// Resync retransmits every message this process has seen — the
// anti-entropy repair to run after a partition heals on lossy
// transports. Safe to call at any time and from any subset of
// processes; a subset suffices when it jointly saw every message.
// Requires EnableResync.
func (c *Causal) Resync() { c.core.resync() }

// EnableResync turns on envelope retention (see Causal.EnableResync).
func (r *Reliable) EnableResync() { r.core.enableResync() }

// Resync retransmits every message this process has seen (see
// Causal.Resync). Requires EnableResync.
func (r *Reliable) Resync() { r.core.resync() }

// EnableResync turns on envelope retention (see Causal.EnableResync).
func (f *FIFO) EnableResync() { f.core.enableResync() }

// Resync retransmits every message this process has seen (see
// Causal.Resync). Requires EnableResync.
func (f *FIFO) Resync() { f.core.resync() }
