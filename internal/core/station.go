package core

// Station is the package's one fold: one process's copy of MANY named
// objects, all disseminated over a single broadcast layer, with update
// batching on the hot path. A replica group of n Stations over one
// transport forms a shard of the multi-object service (cc/cluster);
// clients may invoke one Station from many goroutines concurrently.
// Replica wraps an unbatched one-object Station for the paper's
// sequential-process experiments.
//
// The consistency criterion is per-group (see the package comment): CC
// (causal broadcast, apply on delivery), PC (FIFO), EC (unordered +
// timestamp-ordered fold), CCv (causal + timestamp-ordered fold). For
// CCv the total-order timestamp is derived from the causal layer's own
// vector stamp (its coordinate sum, tie-broken by origin), which the
// layer assigns atomically with the causal ordering decision — so the
// timestamp order extends causality by construction even when
// deliveries race invocations, with no application-level Lamport
// window.

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/paper-repro/ccbm/internal/adt"
	"github.com/paper-repro/ccbm/internal/broadcast"
	"github.com/paper-repro/ccbm/internal/net"
	"github.com/paper-repro/ccbm/internal/spec"
	"github.com/paper-repro/ccbm/internal/vclock"
	"github.com/paper-repro/ccbm/internal/xhash"
)

// ErrClosed reports an update submitted to a closed station — a
// shutdown-in-progress condition, distinct from data errors like an
// unknown object.
var ErrClosed = errors.New("core: station closed")

// ErrDown reports an operation routed to a replica that has been
// crash-stopped by fault injection: the process refuses service until
// restarted. The wire layer maps it to "unavailable" (503), so clients
// retry or fail over instead of reading a corpse.
var ErrDown = errors.New("core: replica down")

// Replication selects the dissemination backend of a station group.
type Replication int

const (
	// ReplBroadcast is the reliable-broadcast stack of Sec. 6.1
	// (flooding relCore + ordering layer): assumes eventually reliable
	// links; a partition silently loses messages unless Retain is set
	// and Resync is called after the heal.
	ReplBroadcast Replication = iota
	// ReplAntiEntropy is the gossip backend: per-pair version-vector
	// exchange with batched delta shipping in periodic rounds
	// (broadcast.AntiEntropy). Partitions merely pause convergence;
	// causal order is reconstructed from VC stamps on replay, so
	// CC/CCv delivery survives loss and reordering.
	ReplAntiEntropy
)

// String names the backend the way flags spell it.
func (r Replication) String() string {
	if r == ReplAntiEntropy {
		return "antientropy"
	}
	return "broadcast"
}

// ParseReplication resolves a backend name.
func ParseReplication(s string) (Replication, error) {
	switch s {
	case "", "broadcast":
		return ReplBroadcast, nil
	case "antientropy", "anti-entropy", "gossip":
		return ReplAntiEntropy, nil
	}
	return 0, fmt.Errorf("core: unknown replication backend %q (want broadcast or antientropy)", s)
}

// StationConfig tunes a station's hot path.
type StationConfig struct {
	// BatchOps is the maximum number of updates carried by one
	// broadcast message; <= 1 disables batching (every update is its
	// own broadcast).
	BatchOps int
	// BatchWait bounds how long an enqueued update may wait for the
	// batch to fill before it is flushed anyway. Ignored when batching
	// is disabled; 0 defaults to 200µs.
	BatchWait time.Duration
	// Replication selects the dissemination backend (default
	// ReplBroadcast).
	Replication Replication
	// GossipInterval is the anti-entropy round period (default 10ms;
	// ReplAntiEntropy only).
	GossipInterval time.Duration
	// Retain keeps the broadcast backend's envelope log so Resync can
	// retransmit after a partition heals (memory grows with the
	// communication history; ReplBroadcast only — anti-entropy always
	// retains, that is its sync state).
	Retain bool
	// Birth seeds the per-origin high-water stamps (unix nanos). A
	// replica group must share one birth, or the construction-time
	// skew between its members reads as a permanent phantom lag. 0
	// defaults to the station's own construction time.
	Birth int64
}

// totalTS orders updates in the timestamp modes (EC, CCv): time, then
// intra-batch position, then origin.
type totalTS struct {
	VT  int // EC: origin Lamport time; CCv: causal-stamp coordinate sum
	Seq int // position within the batch
	PID int // origin process, the tie-breaker
}

func (a totalTS) less(b totalTS) bool {
	if a.VT != b.VT {
		return a.VT < b.VT
	}
	if a.Seq != b.Seq {
		return a.Seq < b.Seq
	}
	return a.PID < b.PID
}

// wireOp is one update on the wire.
type wireOp struct {
	Obj string // object name
	ADT string // ADT registry name, creates the object lazily on first delivery
	In  spec.Input
	ID  uint64 // origin-local id routing the output back to the invoker
	VT  int    // EC only: origin-assigned Lamport time
}

// batchMsg is the broadcast payload: a batch of updates applied in
// order on delivery. SentAt is the origin's wall-clock send stamp
// (unix nanos); receivers keep, per origin, the largest stamp
// delivered — the per-origin high-water mark that staleness-bounded
// reads compare against (Pileus-style). Replicas of one shard share a
// clock domain in this runtime (one process), so cross-replica stamp
// comparison needs no clock-sync caveats.
type batchMsg struct {
	Ops    []wireOp
	SentAt int64
}

// stObject is the per-object replicated state.
type stObject struct {
	t       spec.ADT
	adtName string

	// Apply-on-delivery modes (CC, PC).
	state spec.State

	// Timestamp-ordered modes (EC, CCv): the shared timestamp-ordered
	// log with its replay cache.
	tl *tsLog
}

// StationStats counts a station's activity.
type StationStats struct {
	Invocations int64
	Updates     int64
	Queries     int64
	Applied     int64 // update deliveries applied (own + remote, all objects)
	Broadcasts  int64 // batches sent
	BatchedOps  int64 // updates carried by those batches
	Objects     int   // named objects hosted
	LogLen      int   // timestamp-log entries across objects (EC/CCv)
}

// Station is one process of a multi-object replica group. All methods
// are safe for concurrent use by many client sessions.
type Station struct {
	id   int
	mode Mode
	bc   broadcast.Broadcaster

	repl   Replication
	ae     *broadcast.AntiEntropy // ReplAntiEntropy backend
	causal *broadcast.Causal      // ReplBroadcast causal layer (CC/CCv)
	resync func()                 // backend repair hook; nil when unavailable

	mu      sync.Mutex
	objs    map[string]*stObject
	outs    map[uint64]spec.Output
	outCond *sync.Cond
	down    bool    // fault-injected crash-stop: refuse service until Restart
	delivFP uint64  // XOR of delivered-op hashes (set convergence witness)
	delivB  []int64 // per-origin delivered-batch counts (quiescence probe)
	hw      []int64 // per-origin high-water: latest delivered send stamp (unix ns)
	tsHigh  int     // EC: Lamport high-water (assigned ∨ witnessed)
	lastVT  []int   // per-origin largest timestamp seen, for compaction
	stats   StationStats

	batchMu  sync.Mutex
	pending  []wireOp
	nextID   uint64
	timer    *time.Timer
	closed   bool
	batchOps int
	wait     time.Duration

	// flushMu serializes take+broadcast, so batches leave in the order
	// their timestamps were assigned (EC) and a quiescence check can
	// rule out an in-flight flush by acquiring it.
	flushMu sync.Mutex
}

// NewStation creates the station for process id over the transport and
// registers its delivery handler.
func NewStation(tr net.Transport, id int, mode Mode, cfg StationConfig) *Station {
	s := &Station{
		id:       id,
		mode:     mode,
		objs:     make(map[string]*stObject),
		outs:     make(map[uint64]spec.Output),
		delivB:   make([]int64, tr.N()),
		hw:       make([]int64, tr.N()),
		lastVT:   make([]int, tr.N()),
		batchOps: cfg.BatchOps,
		wait:     cfg.BatchWait,
	}
	if s.wait <= 0 {
		s.wait = 200 * time.Microsecond
	}
	// High-water marks start at the group's birth: "everything up to
	// now" is vacuously delivered from every origin (the group starts
	// together with empty histories), so an origin that never writes
	// contributes zero staleness instead of an unbounded one.
	birth := cfg.Birth
	if birth == 0 {
		birth = time.Now().UnixNano()
	}
	for i := range s.hw {
		s.hw[i] = birth
	}
	s.outCond = sync.NewCond(&s.mu)
	s.repl = cfg.Replication
	if s.repl == ReplAntiEntropy {
		aeCfg := broadcast.AEConfig{Interval: cfg.GossipInterval}
		switch mode {
		case ModeCC, ModeCCv:
			aeCfg.Ordering = broadcast.AECausal
		case ModePC, ModeEC:
			aeCfg.Ordering = broadcast.AEFIFO
		default:
			panic(fmt.Sprintf("core: unknown mode %v", mode))
		}
		s.ae = broadcast.NewAntiEntropy(tr, id, aeCfg, s.onDeliverVC)
		s.bc = s.ae
		s.resync = s.ae.SyncNow
		return s
	}
	switch mode {
	case ModeCC, ModeCCv:
		s.causal = broadcast.NewCausalVC(tr, id, s.onDeliverVC)
		s.bc = s.causal
		if cfg.Retain {
			s.causal.EnableResync()
			s.resync = s.causal.Resync
		}
	case ModePC:
		f := broadcast.NewFIFO(tr, id, s.onDeliver)
		s.bc = f
		if cfg.Retain {
			f.EnableResync()
			s.resync = f.Resync
		}
	case ModeEC:
		r := broadcast.NewReliable(tr, id, s.onDeliver)
		s.bc = r
		if cfg.Retain {
			r.EnableResync()
			s.resync = r.Resync
		}
	default:
		panic(fmt.Sprintf("core: unknown mode %v", mode))
	}
	return s
}

// ID returns the station's process id.
func (s *Station) ID() int { return s.id }

// Mode returns the group's consistency mode.
func (s *Station) Mode() Mode { return s.mode }

// Replication returns the group's dissemination backend.
func (s *Station) Replication() Replication { return s.repl }

// SetDown flips the station's fault-injected crash-stop state. While
// down, Invoke and InvokeAsync refuse with ErrDown; replicated state
// and the delivery plumbing stay intact, so a later SetDown(false)
// resumes service exactly where the transport-level catch-up
// (gossip or resync) has brought the local copy.
func (s *Station) SetDown(down bool) {
	s.mu.Lock()
	s.down = down
	s.mu.Unlock()
}

// Down reports whether the station is refusing service.
func (s *Station) Down() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.down
}

// Resync triggers the backend's repair path: a gossip round to every
// peer (anti-entropy) or a full retransmission of the retained
// envelope log (broadcast with Retain). It reports false when the
// backend has no repair path (broadcast without Retain) — convergence
// after a heal is then not guaranteed.
func (s *Station) Resync() bool {
	if s.resync == nil {
		return false
	}
	s.resync()
	return true
}

// Frontier returns the station's causal delivery frontier — the
// vector of delivered-message counts per origin — or nil for the
// non-causal modes (PC, EC), whose backends make no causal promise a
// frontier could carry. A session that re-attaches to another replica
// with its last-seen frontier preserves read-your-writes: once the
// new replica's frontier dominates it, every update the session saw
// applied is applied there too.
func (s *Station) Frontier() vclock.VC {
	switch {
	case s.ae != nil && (s.mode == ModeCC || s.mode == ModeCCv):
		return s.ae.VC()
	case s.causal != nil:
		return s.causal.VC()
	}
	return nil
}

// WaitFrontier blocks until the station's causal frontier dominates
// want, or the timeout lapses; it reports whether the wait succeeded.
// Stations without a frontier (PC, EC) succeed trivially — there is
// no causal promise to wait for.
func (s *Station) WaitFrontier(want vclock.VC, timeout time.Duration) bool {
	if len(want) == 0 {
		return true
	}
	deadline := time.Now().Add(timeout)
	for {
		have := s.Frontier()
		if have == nil || want.LessEq(have) {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// Fingerprint summarizes the station's replicated knowledge in one
// 64-bit value; equal fingerprints across a replica group mean the
// group has converged — the chaos harness's post-heal assertion.
// Every mode folds in the delivered set, witnessed by the
// order-insensitive XOR of delivered-op hashes (delivery is
// exactly-once: the FIFO/causal layers and the anti-entropy logs dedup
// by per-origin sequence). CC and PC apply updates in delivery order,
// and causal delivery lets replicas interleave concurrent
// non-commuting updates differently — their states may legitimately
// differ forever, which is exactly the paper's point in separating the
// criteria — so there the delivered set is the whole fingerprint. EC
// and CCv arbitrate delivered updates into one total order, so their
// states themselves converge: the fingerprint also folds every hosted
// object's canonical state key (object names in sorted order, then
// keys). The state alone would not do: a replica that has delivered
// only inc(2) and one that has delivered only inc(1), inc(1) hold the
// same counter while each still awaits the other's updates.
func (s *Station) Fingerprint() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mode == ModeCC || s.mode == ModePC {
		return s.delivFP
	}
	names := make([]string, 0, len(s.objs))
	for n := range s.objs {
		names = append(names, n)
	}
	sort.Strings(names)
	h := xhash.Seed
	for _, n := range names {
		h = xhash.Ints(h, []int{len(n)})
		for _, c := range []byte(n) {
			h = xhash.Mix(h, uint64(c))
		}
		key := s.objs[n].queryStateLocked(s.mode).Key()
		h = xhash.Ints(h, []int{len(key)})
		for _, c := range []byte(key) {
			h = xhash.Mix(h, uint64(c))
		}
	}
	return xhash.Mix(h, s.delivFP)
}

// EnsureObject creates the named object locally if it does not exist.
// Call it on every station of the group before routing traffic for the
// object (remote stations also create lazily on first delivery, so a
// missed call only affects queries racing the first update).
func (s *Station) EnsureObject(name, adtName string) error {
	t, err := adt.Lookup(adtName)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objs[name]; !ok {
		s.createLocked(name, adtName, t)
	}
	return nil
}

func (s *Station) createLocked(name, adtName string, t spec.ADT) *stObject {
	o := &stObject{t: t, adtName: adtName, state: t.Init(), tl: newTSLog(t)}
	s.objs[name] = o
	s.stats.Objects = len(s.objs)
	return o
}

// ensureLocked resolves an object at delivery time, creating it from
// its wire ADT name when this station has not seen it yet.
func (s *Station) ensureLocked(name, adtName string) *stObject {
	if o, ok := s.objs[name]; ok {
		return o
	}
	t, err := adt.Lookup(adtName)
	if err != nil {
		return nil // unknown type on the wire: drop, counted nowhere
	}
	return s.createLocked(name, adtName, t)
}

// Objects returns the names of the objects hosted, sorted.
func (s *Station) Objects() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.objs))
	for n := range s.objs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Stats returns a snapshot of the station's counters.
func (s *Station) Stats() StationStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.LogLen = 0
	for _, o := range s.objs {
		st.LogLen += o.tl.size()
	}
	return st
}

// Invoke executes one operation on the named object. Queries read the
// local state; updates are enqueued on the current batch, broadcast,
// and complete when the local delivery applies them (never waiting for
// remote progress — wait-freedom is preserved, batching only delays
// the local flush by at most BatchWait).
func (s *Station) Invoke(obj string, in spec.Input) (spec.Output, error) {
	wait, err := s.InvokeAsync(obj, in)
	if err != nil {
		return spec.Output{}, err
	}
	return wait(), nil
}

// InvokeAsync begins one operation and returns the function that
// waits for its output — the per-op routing primitive batch groups
// pipeline on. A query's wait function returns immediately (the state
// was read at the call); an update's blocks until the local delivery
// applies it. Updates submitted by one caller complete in submission
// order (origin FIFO through the batcher and the broadcast layer), so
// a caller may hold many update handles and collect them at the end
// without reordering its program order.
func (s *Station) InvokeAsync(obj string, in spec.Input) (func() spec.Output, error) {
	s.mu.Lock()
	if s.down {
		s.mu.Unlock()
		return nil, fmt.Errorf("station %d: %w", s.id, ErrDown)
	}
	o, ok := s.objs[obj]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("core: unknown object %q", obj)
	}
	if !o.t.IsUpdate(in) {
		q := o.queryStateLocked(s.mode)
		_, out := o.t.Step(q, in)
		s.stats.Invocations++
		s.stats.Queries++
		s.mu.Unlock()
		return func() spec.Output { return out }, nil
	}
	s.stats.Invocations++
	s.stats.Updates++
	s.mu.Unlock()

	id, err := s.enqueue(wireOp{Obj: obj, ADT: o.adtName, In: in})
	if err != nil {
		return nil, err
	}
	return func() spec.Output { return s.await(id) }, nil
}

// enqueue adds an update to the pending batch, flushing when full (or
// scheduling a timed flush when the batch just opened), and returns
// the op id to await.
func (s *Station) enqueue(op wireOp) (uint64, error) {
	s.batchMu.Lock()
	if s.closed {
		s.batchMu.Unlock()
		return 0, fmt.Errorf("station %d: %w", s.id, ErrClosed)
	}
	s.nextID++
	op.ID = s.nextID
	s.pending = append(s.pending, op)
	switch {
	case s.batchOps <= 1 || len(s.pending) >= s.batchOps:
		s.batchMu.Unlock()
		s.Flush()
	case len(s.pending) == 1:
		s.timer = time.AfterFunc(s.wait, s.Flush)
		s.batchMu.Unlock()
	default:
		s.batchMu.Unlock()
	}
	return op.ID, nil
}

// takeLocked claims the pending batch and cancels its flush timer.
func (s *Station) takeLocked() []wireOp {
	ops := s.pending
	s.pending = nil
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	return ops
}

// Flush broadcasts the pending batch, if any. It runs when a batch
// fills, on the batch timer, and at Close; callers never need it for
// correctness.
func (s *Station) Flush() {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	s.batchMu.Lock()
	ops := s.takeLocked()
	s.batchMu.Unlock()
	s.broadcast(ops)
}

// broadcast stamps (EC) and disseminates one batch. Local delivery —
// synchronous inside Broadcast or handed to a concurrent delivery
// drainer — produces the per-op outputs the invokers await.
func (s *Station) broadcast(ops []wireOp) {
	if len(ops) == 0 {
		return
	}
	s.mu.Lock()
	if s.mode == ModeEC {
		// Origin-assigned Lamport times: unique per (VT, PID) because
		// tsHigh never decreases, monotone enough for the fold order;
		// EC makes no causality promise for them to violate.
		for i := range ops {
			ops[i].VT = s.tsHigh + 1 + i
		}
		s.tsHigh += len(ops)
	}
	s.stats.Broadcasts++
	s.stats.BatchedOps += int64(len(ops))
	s.mu.Unlock()
	s.bc.Broadcast(batchMsg{Ops: ops, SentAt: time.Now().UnixNano()})
}

// await blocks until the local delivery of op id produces its output.
func (s *Station) await(id uint64) spec.Output {
	s.mu.Lock()
	for {
		if out, ok := s.outs[id]; ok {
			delete(s.outs, id)
			s.mu.Unlock()
			return out
		}
		s.outCond.Wait()
	}
}

// onDeliver handles FIFO/Reliable deliveries (PC, EC).
func (s *Station) onDeliver(origin int, payload any) {
	s.apply(origin, 0, payload)
}

// onDeliverVC handles causal deliveries (CC, CCv) carrying the stamp.
func (s *Station) onDeliverVC(origin int, vc vclock.VC, payload any) {
	vt := 0
	if s.mode == ModeCCv {
		for _, v := range vc {
			vt += v
		}
	}
	s.apply(origin, vt, payload)
}

// apply folds one delivered batch into the local states. ccvVT is the
// causal-stamp coordinate sum (CCv mode only).
func (s *Station) apply(origin, ccvVT int, payload any) {
	m, ok := payload.(batchMsg)
	if !ok {
		return
	}
	s.mu.Lock()
	if origin >= 0 && origin < len(s.delivB) {
		s.delivB[origin]++
		if m.SentAt > s.hw[origin] {
			s.hw[origin] = m.SentAt
		}
	}
	woke := false
	for i, op := range m.Ops {
		o := s.ensureLocked(op.Obj, op.ADT)
		if o == nil {
			continue
		}
		fp := xhash.Ints(xhash.Seed, []int{origin, int(op.ID)})
		for _, c := range []byte(op.Obj) {
			fp = xhash.Mix(fp, uint64(c))
		}
		for _, c := range []byte(op.In.Method) {
			fp = xhash.Mix(fp, uint64(c))
		}
		s.delivFP ^= xhash.Ints(fp, op.In.Args)
		var out spec.Output
		switch s.mode {
		case ModeCC, ModePC:
			o.state, out = o.t.Step(o.state, op.In)
		case ModeEC, ModeCCv:
			ts := totalTS{VT: op.VT, Seq: i, PID: origin}
			if s.mode == ModeCCv {
				ts.VT = ccvVT
			}
			if ts.VT > s.tsHigh {
				s.tsHigh = ts.VT // Lamport witness (EC)
			}
			if ts.VT > s.lastVT[origin] {
				s.lastVT[origin] = ts.VT
			}
			pos := o.tl.insert(ts, op.In)
			if origin == s.id {
				// The op's own output is computed in the state reached by
				// the updates preceding it in the shared total order.
				q := o.tl.replay(pos)
				_, out = o.t.Step(q, op.In)
			}
		}
		s.stats.Applied++
		if origin == s.id {
			s.outs[op.ID] = out
			woke = true
		}
	}
	if woke {
		s.outCond.Broadcast()
	}
	s.mu.Unlock()
}

// queryStateLocked returns the state a query observes.
func (o *stObject) queryStateLocked(mode Mode) spec.State {
	if mode == ModeCC || mode == ModePC {
		return o.state
	}
	return o.tl.state()
}

// StateKey returns the canonical key of the named object's current
// local state; equal keys across a group mean convergence.
func (s *Station) StateKey(obj string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objs[obj]
	if !ok {
		return "", false
	}
	return o.queryStateLocked(s.mode).Key(), true
}

// DeliveredBatches returns the per-origin counts of update batches
// this station has applied. Together with every peer's Broadcasts
// stat it forms a quiescence probe that works in all four modes: once
// each station's vector dominates a snapshot of the group's per-origin
// broadcast counts, every batch counted in that snapshot has been
// applied everywhere (delivery is exactly-once per origin sequence,
// so counts cannot be satisfied by other origins' later traffic).
func (s *Station) DeliveredBatches() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.delivB...)
}

// HighWater returns the station's per-origin high-water marks: for
// each origin, the wall-clock send stamp (unix nanos) of the latest
// update batch delivered from it, initialized to the station's birth
// time. A replica whose vector componentwise matches the freshest
// vector in the group has delivered every batch the group has sent;
// the componentwise deficit against the group-wide maximum, in time
// units, is the replica's replication lag — what bounded-staleness
// reads and the /v1/staleness endpoint report.
func (s *Station) HighWater() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.hw...)
}

// ExportObject returns the named object's current local query state —
// the migration snapshot. Callers must have quiesced the group first
// (see DeliveredBatches); the export is then the fold of every update
// the object will ever see on this group.
func (s *Station) ExportObject(name string) (spec.State, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objs[name]
	if !ok {
		return nil, false
	}
	return o.queryStateLocked(s.mode), true
}

// ImportObject installs a migrated object with the given state as its
// local base: the apply-on-delivery modes (CC, PC) adopt it as the
// live state, the timestamp-ordered modes (EC, CCv) seed the log's
// fold base with it. Everything baked into the base is strictly "in
// the past" of any update this group later delivers for the object —
// the causal handoff is by construction, no log entries travel.
func (s *Station) ImportObject(name, adtName string, state spec.State) error {
	t, err := adt.Lookup(adtName)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objs[name]
	if !ok {
		o = s.createLocked(name, adtName, t)
	}
	o.state = state
	o.tl.seed(state)
	return nil
}

// DropObject removes the local copy of a migrated-away object. Safe
// while traffic for other objects continues; the caller guarantees no
// further operations or deliveries route the dropped object here.
func (s *Station) DropObject(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.objs, name)
	s.stats.Objects = len(s.objs)
}

// Compact garbage-collects the stable prefix of every object's
// timestamp log, returning the total number of entries folded away.
// Only CCv compacts: causal delivery is per-origin FIFO and an origin's
// stamps strictly grow, so once every origin has been heard from with
// a timestamp >= VT no future update can be ordered at or before VT,
// and folding that prefix into the base changes no future read. A
// silent origin therefore blocks compaction — the classic price of
// log-based convergence. EC's unordered dissemination gives no such
// guarantee — a slow flood may deliver an old timestamp after
// arbitrarily newer ones — so EC logs are left intact.
func (s *Station) Compact() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mode != ModeCCv {
		return 0
	}
	stable := s.lastVT[0]
	for _, vt := range s.lastVT[1:] {
		if vt < stable {
			stable = vt
		}
	}
	total := 0
	for _, o := range s.objs {
		total += o.tl.compact(stable)
	}
	return total
}

// Close flushes the pending batch and stops accepting updates. Safe to
// call before or after the transport's own Close; either way every
// in-flight invoker is released (local delivery does not need the
// network).
func (s *Station) Close() {
	s.batchMu.Lock()
	if s.closed {
		s.batchMu.Unlock()
		return
	}
	s.closed = true
	s.batchMu.Unlock()
	s.Flush()
	if s.ae != nil {
		s.ae.Stop()
	}
}
