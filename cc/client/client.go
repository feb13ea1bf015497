// Package client is the public SDK for the cc serving layer: a
// typed, session-oriented view of a cluster over the versioned wire
// protocol in cc/cluster/wire.
//
// A Client wraps a pluggable Transport — HTTP against a ccserved
// address, or an in-process loopback around a *cluster.Cluster — and
// hands out Session handles. A Session preserves the paper's
// per-process sequential discipline: its operations take effect in
// program order and its affinity reads observe its own completed
// updates. Independent sessions commute (Perrin et al.'s
// session-based causal model), which is exactly what the SDK's
// batching exploits: with WithBatching, asynchronous invocations from
// many sessions coalesce into pipelined batch requests (size + delay
// flush, mirroring the server's own broadcast batching), while each
// session's ops stay ordered — a session never has ops in two
// in-flight batches at once.
//
//	tr := client.NewHTTPTransport("http://127.0.0.1:8344")
//	cli, err := client.New(tr, client.WithBatching(64, 500*time.Microsecond))
//	sess := cli.Session(7)
//	cnt, err := sess.Counter(ctx, "cart:1")
//	fut := cnt.IncAsync(1)              // pipelined
//	n, err := cnt.Get(ctx)              // read-your-writes
//	out, err := fut.Get(ctx)
//
// Per-request consistency targets (Pileus-style) ride on every read:
// the default wire.ReadAffinity keeps the session contract, while
// sess.WithTarget(wire.ReadAny) trades read-your-writes for load
// spread across the shard's replicas.
package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/paper-repro/ccbm/cc"
	"github.com/paper-repro/ccbm/cc/cluster/wire"
	"github.com/paper-repro/ccbm/cc/sla"
)

// ErrClosed reports an operation submitted after Client.Close.
var ErrClosed = errors.New("client: closed")

// config collects the options New accepts.
type config struct {
	batchOps    int
	batchDelay  time.Duration
	maxInflight int
	target      wire.ReadTarget
	heal        healConfig
	sla         sla.SLA
	slaRouter   sla.Router
}

// Option configures a Client.
type Option func(*config)

// WithBatching turns on client-side batching: asynchronous
// invocations queue until maxOps are pending or maxDelay has passed
// since the first, then flush as one batch request. Up to
// WithMaxInflight batches pipeline concurrently; a session's ops
// never span two in-flight batches (program order). Without this
// option every invocation is its own round trip.
func WithBatching(maxOps int, maxDelay time.Duration) Option {
	return func(c *config) {
		c.batchOps = maxOps
		c.batchDelay = maxDelay
	}
}

// WithMaxInflight bounds the number of concurrently in-flight batch
// requests (default 4). Only meaningful with WithBatching.
func WithMaxInflight(n int) Option {
	return func(c *config) { c.maxInflight = n }
}

// WithReadTarget sets the default read target of every session
// (default wire.ReadAffinity). Sessions override per-handle with
// Session.WithTarget.
func WithReadTarget(t wire.ReadTarget) Option {
	return func(c *config) { c.target = t }
}

// Client is a handle on one cluster through one transport. All
// methods are safe for concurrent use; per-session sequentiality is
// the Session's contract, not the Client's.
type Client struct {
	tr     Transport
	target wire.ReadTarget
	batch  *batcher // nil when batching is disabled

	// Self-healing state (see selfheal.go): per-session failover pins
	// and causal frontiers, per-replica circuit breakers, and the
	// learned replica count for rotation. All no-ops when no
	// self-healing option is set.
	heal     healConfig
	replicas atomic.Int32
	// Consistency-SLA state (see sla.go): the per-replica condition
	// tracker, delivered-verdict counters, and the object → ADT cache
	// that classifies reads. defSLA/defRouter seed new sessions.
	sla       *slaState
	defSLA    sla.SLA
	defRouter sla.Router
	adts      sync.Map // object name → cc.ADT
	// ringEpoch caches the server's ring epoch once Ring has been
	// called (0 = never fetched: requests carry no epoch and the server
	// serves them unconditionally). Requests echo it so the server can
	// answer CodeStaleRing when the topology moves on; the retry path
	// then refreshes the ring and re-attempts transparently.
	ringEpoch atomic.Int64
	healMu    sync.Mutex
	sessHeal  map[int]*healState
	breakers  map[int]*breaker
	met       metCounters

	mu     sync.Mutex
	seq    map[int]*seqState // per-session FIFO for unbatched async ops
	closed bool
}

// New builds a client over the transport.
func New(tr Transport, opts ...Option) (*Client, error) {
	cfg := config{maxInflight: 4, target: wire.ReadAffinity}
	for _, o := range opts {
		o(&cfg)
	}
	if !cfg.target.Valid() {
		return nil, fmt.Errorf("client: unknown read target %q", cfg.target)
	}
	if cfg.maxInflight < 1 {
		return nil, fmt.Errorf("client: max inflight must be at least 1, got %d", cfg.maxInflight)
	}
	if cfg.sla != nil {
		if err := cfg.sla.Validate(); err != nil {
			return nil, err
		}
	}
	c := &Client{
		tr:        tr,
		target:    cfg.target,
		heal:      cfg.heal,
		sla:       newSLAState(),
		defSLA:    cfg.sla,
		defRouter: cfg.slaRouter,
		seq:       make(map[int]*seqState),
		sessHeal:  make(map[int]*healState),
		breakers:  make(map[int]*breaker),
	}
	if cfg.batchOps != 0 || cfg.batchDelay != 0 {
		if cfg.batchOps < 1 {
			return nil, fmt.Errorf("client: batch size must be at least 1, got %d", cfg.batchOps)
		}
		if cfg.batchDelay <= 0 {
			cfg.batchDelay = 500 * time.Microsecond
		}
		c.batch = newBatcher(tr, cfg.batchOps, cfg.batchDelay, cfg.maxInflight)
		c.batch.cli = c
	}
	return c, nil
}

// Close flushes and drains any pending batches, then closes the
// transport. Operations submitted after Close fail with ErrClosed;
// operations already submitted complete.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	if c.batch != nil {
		c.batch.close()
	}
	return c.tr.Close()
}

// Session opens the sequential client view for a session id. All
// operations through one session id — across however many Session
// values share it — must come from one logical sequential client;
// give each concurrent actor its own id.
func (c *Client) Session(id int) *Session {
	return &Session{c: c, id: id, target: c.target, sla: c.defSLA, slaRouter: c.defRouter}
}

// CreateObject registers a named object of a registered ADT
// ("Counter", "Register", "W2^4", ...); idempotent when the ADT
// matches.
func (c *Client) CreateObject(ctx context.Context, name, adtName string) error {
	if err := c.tr.CreateObject(ctx, &wire.CreateObjectRequest{Name: name, ADT: adtName}); err != nil {
		return err
	}
	c.rememberADT(name, adtName)
	return nil
}

// Health checks the server and verifies it speaks this SDK's
// protocol version (the response is returned even on mismatch).
func (c *Client) Health(ctx context.Context) (*wire.HealthzResponse, error) {
	h, err := c.tr.Healthz(ctx)
	if err != nil {
		return nil, err
	}
	return h, protocolCheck(h)
}

// Ring fetches the server's consistent-hash ring description —
// topology, per-shard loads, current epoch — and caches the epoch:
// from then on the client's requests carry it, so a topology change
// (shard added or drained) surfaces as a stale-ring redirect that the
// retry machinery answers with a refresh instead of the client
// silently routing on a dead view.
func (c *Client) Ring(ctx context.Context) (*wire.RingResponse, error) {
	r, err := c.tr.Ring(ctx)
	if err != nil {
		return nil, err
	}
	c.ringEpoch.Store(r.Epoch)
	return r, nil
}

// refreshRing re-learns the ring after a stale-ring redirect. If the
// fetch fails the cached epoch resets to 0 — serve unconditionally —
// so the client degrades to epoch-less requests rather than wedging
// on a topology it can no longer describe.
func (c *Client) refreshRing(ctx context.Context) {
	r, err := c.tr.Ring(ctx)
	if err != nil {
		c.ringEpoch.Store(0)
		return
	}
	c.ringEpoch.Store(r.Epoch)
}

// Stats snapshots the cluster's activity counters.
func (c *Client) Stats(ctx context.Context) (*wire.StatsResponse, error) {
	return c.tr.Stats(ctx)
}

// MonitorSummary fetches the online monitor's aggregate summary.
func (c *Client) MonitorSummary(ctx context.Context) (*wire.MonitorSummary, error) {
	resp, err := c.tr.Monitor(ctx, false)
	if err != nil {
		return nil, err
	}
	return &resp.Summary, nil
}

// MonitorVerdicts fetches every verdict the monitor has produced.
func (c *Client) MonitorVerdicts(ctx context.Context) ([]wire.Verdict, error) {
	resp, err := c.tr.Monitor(ctx, true)
	if err != nil {
		return nil, err
	}
	return resp.Verdicts, nil
}

// WatchVerdicts streams monitor verdicts (NDJSON over HTTP, a direct
// subscription on loopback): every verdict so far, then new ones
// live. The channel closes when ctx is cancelled or the server's
// monitor closes.
func (c *Client) WatchVerdicts(ctx context.Context) (<-chan wire.Verdict, error) {
	return c.tr.MonitorStream(ctx)
}

// CrashReplica crash-stops one replica of one shard (crash testing is
// the point; there is no heal).
func (c *Client) CrashReplica(ctx context.Context, shard, replica int) error {
	return c.tr.Crash(ctx, &wire.CrashRequest{Shard: shard, Replica: replica})
}

// seqState orders one session's unbatched asynchronous invocations:
// each op chains on the previous op's completion channel, so
// submission order is execution order even though each op runs in its
// own goroutine. The chain is guarded by Client.mu (lookup and tail
// swap must be atomic, or a concurrent eviction could fork the
// chain).
type seqState struct {
	tail chan struct{}
}

// seqPush appends one op to the session's FIFO chain, returning the
// channel it must wait on (nil when it is the chain head) and its own
// completion channel.
func (c *Client) seqPush(id int) (prev, done chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.seq[id]
	if !ok {
		st = &seqState{}
		c.seq[id] = st
	}
	prev = st.tail
	done = make(chan struct{})
	st.tail = done
	return prev, done
}

// seqDrained drops the session's chain state when the op that just
// finished is still the tail — otherwise the map grows by one dead
// seqState per session id ever used.
func (c *Client) seqDrained(id int, done chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st, ok := c.seq[id]; ok && st.tail == done {
		delete(c.seq, id)
	}
}

// Session is one client's sequential view of the cluster, pinned to a
// session id. Sessions are cheap; open one per client goroutine. The
// zero read target is the client's default.
type Session struct {
	c      *Client
	id     int
	target wire.ReadTarget
	// Consistency SLA (nil = none): pure-query invocations are routed
	// adaptively under it (see sla.go). slaRouter nil = sla.MaxUtility.
	sla       sla.SLA
	slaRouter sla.Router
}

// ID returns the session id.
func (s *Session) ID() int { return s.id }

// Target returns the session's read target.
func (s *Session) Target() wire.ReadTarget { return s.target }

// WithTarget derives a view of the same session whose reads use the
// given target (Pileus-style per-request consistency): the derived
// handle shares the session id and its program order, only the
// routing of its queries changes.
func (s *Session) WithTarget(t wire.ReadTarget) *Session {
	d := *s
	d.target = t
	return &d
}

// Invoke executes one operation and waits for its result. It takes
// its place in the session's submission order behind any pending async
// ops, exactly as InvokeAsync followed by Get would. With batching
// enabled the op rides a batch (the delay flush bounds the wait).
// Without batching, a ctx that can never be cancelled (Done() == nil,
// as context.Background) runs the op's round trip on the caller's
// goroutine; otherwise ctx bounds the wait, not the operation (see
// Future.Get).
func (s *Session) Invoke(ctx context.Context, object string, in cc.Input) (cc.Output, error) {
	return s.submit(object, in, ctx.Done() == nil).Get(ctx)
}

// Call is Invoke with the method/args convenience.
func (s *Session) Call(ctx context.Context, object, method string, args ...int) (cc.Output, error) {
	return s.Invoke(ctx, object, cc.NewInput(method, args...))
}

// InvokeAsync submits one operation and returns its Future
// immediately. Ops submitted through one session, by InvokeAsync or
// Invoke, execute in submission order; ops of independent sessions
// pipeline freely. With batching enabled the op coalesces into the
// next batch flush; without, it runs as its own round trip behind the
// session's earlier ops.
func (s *Session) InvokeAsync(object string, in cc.Input) *Future {
	return s.submit(object, in, false)
}

// submit places one op in the session's order. An unbatched op runs on
// the caller's goroutine when inline is set (the returned Future is
// then already settled), and on its own goroutine otherwise.
func (s *Session) submit(object string, in cc.Input, inline bool) *Future {
	f := newFuture()
	if err := s.c.checkOpen(); err != nil {
		f.reject(err)
		return f
	}
	sc := s.slaStart(object, in)
	if b := s.c.batch; b != nil {
		op := batchOp{obj: object, in: in, target: s.wireTarget(), fut: f, sc: sc}
		if sc != nil {
			op.target, op.readRep = s.c.slaPlan(s.id, sc)
		}
		b.enqueue(s.id, op)
		return f
	}
	prev, done := s.c.seqPush(s.id)
	if inline {
		s.run(object, in, sc, f, prev, done)
	} else {
		go s.run(object, in, sc, f, prev, done)
	}
	return f
}

// run performs one unbatched op at its place in the session's FIFO
// chain: it waits for prev, makes the round trip, settles f, and only
// then releases the session's next op through done.
func (s *Session) run(object string, in cc.Input, sc *slaCall, f *Future, prev, done chan struct{}) {
	if prev != nil {
		<-prev
	}
	start := time.Now()
	resp, err := s.c.invokeHealed(context.Background(), s.id, &wire.InvokeRequest{
		Session: s.id, Object: object, Method: in.Method, Args: in.Args, Target: s.wireTarget(),
	}, sc)
	if sc != nil {
		s.c.slaObserve(sc, resp, time.Since(start), err)
	}
	if err != nil {
		f.reject(err)
	} else {
		f.resolve(outputFromWire(resp))
	}
	close(done)
	s.c.seqDrained(s.id, done)
}

// CallAsync is InvokeAsync with the method/args convenience.
func (s *Session) CallAsync(object, method string, args ...int) *Future {
	return s.InvokeAsync(object, cc.NewInput(method, args...))
}

// wireTarget renders the session target for the wire (affinity, the
// default, travels as the empty string).
func (s *Session) wireTarget() wire.ReadTarget {
	if s.target == wire.ReadAffinity {
		return ""
	}
	return s.target
}

func (c *Client) checkOpen() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	return nil
}

// Future is the pending result of an asynchronous invocation.
type Future struct {
	done chan struct{}
	out  cc.Output
	err  error
}

func newFuture() *Future { return &Future{done: make(chan struct{})} }

func (f *Future) resolve(out cc.Output) {
	f.out = out
	close(f.done)
}

func (f *Future) reject(err error) {
	f.err = err
	close(f.done)
}

// Get waits for the result. A context cancellation abandons the wait,
// not the operation — the op may still execute (it is already on the
// wire).
func (f *Future) Get(ctx context.Context) (cc.Output, error) {
	select {
	case <-f.done:
		return f.out, f.err
	case <-ctx.Done():
		return cc.Output{}, ctx.Err()
	}
}

// Done is closed when the result is available.
func (f *Future) Done() <-chan struct{} { return f.done }

// outputFromWire decodes one wire result into the spec model.
func outputFromWire(r *wire.InvokeResponse) cc.Output {
	if r == nil || r.Bot {
		return cc.Bot
	}
	return cc.TupleOutput(r.Vals...)
}
