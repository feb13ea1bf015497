// Package cluster is the serving layer of the ccbm runtime: a live,
// sharded multi-object service over the paper's wait-free replicated
// object construction (Sec. 6), with an online consistency monitor.
//
// A Cluster hosts many named objects of any registered ADT. Objects
// are hash-sharded across independent replica groups; each group is n
// processes (internal/core.Station) over one live transport, running
// the delivery discipline of the configured criterion (CC, PC, EC or
// CCv). Updates ride batched broadcasts on the hot path; queries read
// replica-local state, so every operation is wait-free.
//
// Clients speak through Sessions. A Session is pinned to one replica
// per shard, which gives it the paper's "sequential process" view:
// its operations execute in program order against a single replica,
// and its updates are visible to its own later operations. A Session
// must not be used from two goroutines at once (give each client
// goroutine its own).
//
// The online monitor samples objects at creation and records their
// first operations as a timed history; completed windows stream into
// cc/checker's Classifier, so the cluster continuously spot-checks the
// criterion it claims while serving traffic. See Monitor for exactly
// what a sampled verdict does and does not guarantee.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/paper-repro/ccbm/cc"
	"github.com/paper-repro/ccbm/cc/cluster/wire"
	"github.com/paper-repro/ccbm/internal/core"
	"github.com/paper-repro/ccbm/internal/net"
	"github.com/paper-repro/ccbm/internal/vclock"
)

// ErrClosed reports an operation against a cluster that has been
// Closed — a shutdown-in-progress condition, not a data error.
var ErrClosed = errors.New("cluster: closed")

// ErrUnknownObject reports an operation on an object no CreateObject
// registered. Wire mapping: wire.CodeNotFound.
var ErrUnknownObject = errors.New("cluster: unknown object")

// ErrTypeConflict reports a CreateObject whose name is already taken
// by another ADT. Wire mapping: wire.CodeConflict.
var ErrTypeConflict = errors.New("cluster: object type conflict")

// Config parameterizes a Cluster.
type Config struct {
	// Shards is the number of independent replica groups objects are
	// hashed across; default 1.
	Shards int
	// Replicas is the number of processes per group; default 3.
	Replicas int
	// Criterion selects the group's consistency criterion: "CC"
	// (default), "PC", "EC" or "CCv".
	Criterion string
	// BatchOps is the maximum number of updates per broadcast batch;
	// default 32, 1 disables batching.
	BatchOps int
	// BatchWait bounds how long an update waits for its batch to fill;
	// default 200µs.
	BatchWait time.Duration
	// Replication selects the dissemination backend: "broadcast" (the
	// default — reliable causal/FIFO/unordered broadcast, assumes
	// eventually reliable links) or "antientropy" (gossip with
	// version-vector digests and batched delta shipping — partitions
	// merely pause convergence).
	Replication string
	// GossipInterval is the anti-entropy round period; default 10ms.
	// Anti-entropy backend only.
	GossipInterval time.Duration
	// Resync keeps the broadcast backend's envelope log so Heal and
	// RestartReplica can retransmit what a partition or crash lost
	// (memory grows with the communication history). The anti-entropy
	// backend always can — its sync state is the log.
	Resync bool
	// VirtualNodes is the number of ring positions per shard on the
	// consistent-hash ring; default 64. More virtual nodes smooth the
	// hash-space split at the cost of a larger ring.
	VirtualNodes int
	// LoadFactor bounds placement imbalance: no shard is assigned more
	// than ceil(average × LoadFactor) objects (consistent hashing with
	// bounded loads). Default 1.25; must exceed 1.
	LoadFactor float64
	// MigrateTimeout bounds each per-object migration's quiescence wait
	// during AddShard/DrainShard; past it the migration fails cleanly
	// and the object keeps serving from its source shard. Default 10s.
	MigrateTimeout time.Duration
	// Monitor configures the online consistency monitor.
	Monitor MonitorConfig
}

func (c *Config) fill() error {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.Criterion == "" {
		c.Criterion = "CC"
	}
	mode, err := core.ParseMode(c.Criterion)
	if err != nil {
		return err
	}
	// Canonicalize the spelling: the monitor passes the criterion name
	// to the checker registry, whose keys are case-sensitive ("CCv");
	// an uncanonicalized "ccv" would silently disable the monitor.
	c.Criterion = mode.String()
	repl, err := core.ParseReplication(c.Replication)
	if err != nil {
		return err
	}
	c.Replication = repl.String()
	if c.BatchOps == 0 {
		c.BatchOps = 32
	}
	if c.BatchWait <= 0 {
		c.BatchWait = 200 * time.Microsecond
	}
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = 64
	}
	if c.LoadFactor == 0 {
		c.LoadFactor = 1.25
	}
	if c.LoadFactor <= 1 {
		return fmt.Errorf("cluster: load factor %v must exceed 1", c.LoadFactor)
	}
	if c.MigrateTimeout <= 0 {
		c.MigrateTimeout = 10 * time.Second
	}
	return nil
}

// shard is one replica group over its own transport. A drained shard
// keeps its slot in the cluster's shard slice — shard indices stay
// stable for session frontiers and stats — but its transports are
// closed and routing never selects it.
type shard struct {
	idx      int
	net      *net.Live
	stations []*core.Station

	// rr spreads ReadAny queries across this shard's replicas. It is
	// per-shard deliberately: a cluster-global counter shared by every
	// shard lets interleaved cross-shard traffic stride over one
	// shard's replicas unevenly (e.g. two shards × two replicas pins
	// every ReadAny of each shard to a single replica).
	rr atomic.Uint32

	drained   atomic.Bool
	closeOnce sync.Once
}

func (sh *shard) close() {
	sh.closeOnce.Do(func() {
		for _, st := range sh.stations {
			st.Close()
		}
		sh.net.Close()
	})
}

// object is the cluster-level record of a named object.
type object struct {
	name    string
	adtName string
	t       cc.ADT
	rec     *objRecorder // non-nil when the monitor sampled it

	// gate freezes the object during migration: every invocation holds
	// the read side while it reads shard and submits to a station; the
	// migration holds the write side, so new operations queue (Go's
	// RWMutex blocks new readers once a writer waits) until the object
	// has moved. shard is read under the gate (or c.mu for map walks).
	gate  sync.RWMutex
	shard int
}

// Cluster is a live, sharded multi-object service.
type Cluster struct {
	cfg   Config
	mode  core.Mode
	repl  core.Replication
	mon   *Monitor
	start time.Time

	// epoch is the ring epoch: starts at 1 and bumps on every topology
	// change (AddShard, DrainShard). Clients carrying a stale epoch get
	// a retryable redirect (wire.CodeStaleRing) telling them to refresh.
	epoch atomic.Int64

	// draining marks a graceful shutdown in progress: /v1/readyz
	// reports not-ready while in-flight work finishes.
	draining atomic.Bool

	// rebalMu serializes topology changes (one AddShard/DrainShard at a
	// time); it is never held while serving traffic.
	rebalMu sync.Mutex

	// delays[r] is the injected serving delay of replica index r across
	// every shard, in nanoseconds (SetReplicaDelay): each operation
	// served by that replica sleeps the delay before answering — the
	// asymmetric-latency topology the SLA router routes around.
	delays []atomic.Int64

	// weakReads counts queries served outside their session's ordering
	// (wire.ReadTarget.Weak): the monitor excludes them from its checked
	// histories, so they are tallied separately for operators.
	weakReads atomic.Int64

	mu      sync.RWMutex
	shards  []*shard // append-only; snapshots via shardList are immutable
	ring    *ring
	objects map[string]*object
	// drainFinal records, per drained shard, the final causal frontier
	// at handoff: a session frontier naming a drained shard is satisfied
	// iff it is dominated by this value (everything up to it is baked
	// into the migrated snapshots), and unservable otherwise.
	drainFinal map[int]vclock.VC
	closed     bool
	// closing is cancelled by Close, which ends every op stream.
	closing    context.Context
	endStreams context.CancelFunc
}

// New builds and starts a cluster.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	mode, _ := core.ParseMode(cfg.Criterion)
	repl, _ := core.ParseReplication(cfg.Replication)
	c := &Cluster{
		cfg:        cfg,
		mode:       mode,
		repl:       repl,
		ring:       newRing(cfg.VirtualNodes, cfg.LoadFactor),
		objects:    make(map[string]*object),
		drainFinal: make(map[int]vclock.VC),
		start:      time.Now(),
		delays:     make([]atomic.Int64, cfg.Replicas),
	}
	c.epoch.Store(1)
	c.closing, c.endStreams = context.WithCancel(context.Background())
	for i := 0; i < cfg.Shards; i++ {
		c.shards = append(c.shards, c.newShard(i))
		c.ring.addShard(i)
	}
	c.mon = newMonitor(cfg.Monitor, cfg.Criterion)
	return c, nil
}

// newShard builds one replica group.
func (c *Cluster) newShard(idx int) *shard {
	sh := &shard{idx: idx, net: net.NewLive(c.cfg.Replicas)}
	birth := time.Now().UnixNano() // shared: see core.StationConfig.Birth
	for r := 0; r < c.cfg.Replicas; r++ {
		sh.stations = append(sh.stations, core.NewStation(sh.net, r, c.mode,
			core.StationConfig{
				BatchOps:       c.cfg.BatchOps,
				BatchWait:      c.cfg.BatchWait,
				Replication:    c.repl,
				GossipInterval: c.cfg.GossipInterval,
				Retain:         c.cfg.Resync,
				Birth:          birth,
			}))
	}
	return sh
}

// shardList snapshots the shard slice. The slice is append-only under
// c.mu (AddShard copies before appending), so a snapshot is immutable
// and safe to iterate without the lock.
func (c *Cluster) shardList() []*shard {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.shards
}

// RingEpoch returns the current ring epoch (bumped on every AddShard
// and DrainShard).
func (c *Cluster) RingEpoch() int64 { return c.epoch.Load() }

// ObjectShard reports the shard currently hosting the named object.
func (c *Cluster) ObjectShard(name string) (int, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	o, ok := c.objects[name]
	if !ok {
		return 0, false
	}
	return o.shard, true
}

// Criterion returns the configured consistency criterion.
func (c *Cluster) Criterion() string { return c.cfg.Criterion }

// Monitor returns the cluster's online monitor.
func (c *Cluster) Monitor() *Monitor { return c.mon }

// CreateObject registers a named object of the given registered ADT
// ("Counter", "Register", "W2^4", "M[a-c]", ...) on every replica of
// its shard. Creating an existing object is a no-op when the type
// matches and an error otherwise.
func (c *Cluster) CreateObject(name, adtName string) error {
	t, err := cc.LookupADT(adtName)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	if o, ok := c.objects[name]; ok {
		if o.adtName != adtName {
			return fmt.Errorf("%w: %q already exists with ADT %s", ErrTypeConflict, name, o.adtName)
		}
		return nil
	}
	target := c.ring.place(name)
	if target < 0 {
		return fmt.Errorf("cluster: no shard accepts %q (empty ring)", name)
	}
	o := &object{name: name, adtName: adtName, t: t, shard: target}
	for _, st := range c.shards[target].stations {
		if err := st.EnsureObject(name, adtName); err != nil {
			return err
		}
	}
	c.ring.assign(target)
	o.rec = c.mon.maybeSample(name, t)
	c.objects[name] = o
	return nil
}

// Objects returns the names of the registered objects, sorted.
func (c *Cluster) Objects() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.objects))
	for n := range c.objects {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Session opens the client view for session id: operations routed
// through it are pinned to replica id mod Replicas of each shard, in
// program order. Sessions are cheap; open one per client goroutine
// (a Session must not be used concurrently, or its program order —
// and the monitor's recorded history — becomes meaningless).
func (c *Cluster) Session(id int) *Session {
	// Euclidean mod keeps negative ids valid without aliasing them onto
	// their positive counterparts (the id is also the monitor's proc).
	r := id % c.cfg.Replicas
	if r < 0 {
		r += c.cfg.Replicas
	}
	return &Session{c: c, id: id, replica: r}
}

// Session is one client's sequential view of the cluster.
type Session struct {
	c       *Cluster
	id      int
	replica int
	// readRep is the explicit serving replica of ReadReplica-target
	// queries (wire.InvokeRequest.ReadReplica); nil until a wire
	// request sets it. It moves only those queries — updates and
	// affinity reads stay at the pinned replica.
	readRep *int
}

// ID returns the session id.
func (s *Session) ID() int { return s.id }

// Invoke executes one operation on a named object at the session's
// pinned replica (the ReadAffinity target).
func (s *Session) Invoke(object string, in cc.Input) (cc.Output, error) {
	return s.InvokeTarget(object, in, wire.ReadAffinity)
}

// Call is Invoke with the method/args convenience.
func (s *Session) Call(object, method string, args ...int) (cc.Output, error) {
	return s.Invoke(object, cc.NewInput(method, args...))
}

// CrashReplica crash-stops one process of one shard: it stops
// receiving, its queued deliveries are dropped, and its sends are
// discarded — while its sessions keep being served wait-free from the
// now-partitioned local state (the paper's crash model at serving
// granularity). There is no heal; crash testing is the point.
func (c *Cluster) CrashReplica(shardIdx, replica int) error {
	shs := c.shardList()
	if shardIdx < 0 || shardIdx >= len(shs) {
		return fmt.Errorf("cluster: no shard %d", shardIdx)
	}
	if replica < 0 || replica >= c.cfg.Replicas {
		return fmt.Errorf("cluster: no replica %d", replica)
	}
	if shs[shardIdx].drained.Load() {
		return fmt.Errorf("cluster: shard %d is drained", shardIdx)
	}
	shs[shardIdx].net.Crash(replica)
	return nil
}

// Compact garbage-collects the stable prefix of every CCv replica's
// update logs (see core.Station.Compact); it returns the total number
// of entries folded away. Call it periodically on long-lived CCv
// clusters; other criteria return 0.
func (c *Cluster) Compact() int {
	total := 0
	for _, sh := range c.shardList() {
		if sh.drained.Load() {
			continue
		}
		for _, st := range sh.stations {
			total += st.Compact()
		}
	}
	return total
}

// ShardStats is the per-shard slice of a Stats snapshot. Crashed
// marks transport-level crashes (CrashReplica); Down marks
// fault-injected crash-stops (StopReplica).
type ShardStats struct {
	Crashed  []bool
	Down     []bool
	Drained  bool
	Stations []core.StationStats
}

// Stats is a point-in-time snapshot of the cluster's activity.
// Totals sums every station's counters; its Objects field is the
// cluster-level count of distinct objects (the per-station Objects
// gauges would multiply-count each object once per replica).
// WeakReads counts queries served outside their session's ordering
// (ReadAny, ReadReplica).
type Stats struct {
	Uptime    time.Duration
	Objects   int
	Criteria  string
	WeakReads int64
	Totals    core.StationStats
	Shards    []ShardStats
}

// Stats snapshots every station's counters.
func (c *Cluster) Stats() Stats {
	c.mu.RLock()
	nobj := len(c.objects)
	c.mu.RUnlock()
	s := Stats{
		Uptime:    time.Since(c.start),
		Objects:   nobj,
		Criteria:  c.cfg.Criterion,
		WeakReads: c.weakReads.Load(),
	}
	s.Totals.Objects = nobj
	for _, sh := range c.shardList() {
		ss := ShardStats{Drained: sh.drained.Load()}
		for r, st := range sh.stations {
			t := st.Stats()
			ss.Stations = append(ss.Stations, t)
			ss.Crashed = append(ss.Crashed, sh.net.Crashed(r))
			ss.Down = append(ss.Down, st.Down())
			s.Totals.Invocations += t.Invocations
			s.Totals.Updates += t.Updates
			s.Totals.Queries += t.Queries
			s.Totals.Applied += t.Applied
			s.Totals.Broadcasts += t.Broadcasts
			s.Totals.BatchedOps += t.BatchedOps
			s.Totals.LogLen += t.LogLen
		}
		s.Shards = append(s.Shards, ss)
	}
	return s
}

// Close flushes every station, shuts the transports down, and closes
// the monitor (submitting any open sampled windows). Idempotent.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	shs := c.shards
	c.mu.Unlock()
	for _, sh := range shs {
		sh.close()
	}
	c.mon.Close()
	c.endStreams()
	return nil
}
