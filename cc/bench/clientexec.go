package bench

import (
	"context"
	"sync"

	"github.com/paper-repro/ccbm/cc/client"
)

// ClientExecutor drives generated ops through a cc/client.Client,
// mapping workers to sessions one-to-one (worker i = session base+i),
// which gives every worker the paper's per-session guarantees —
// session-dependent scenarios (session-cart) rely on read-your-writes
// holding within a worker. Ops with Create set lazily create their
// object first (idempotent on the server), so growing-keyspace
// scenarios mint objects mid-run.
type ClientExecutor struct {
	cli  *client.Client
	base int

	mu       sync.Mutex
	sessions map[int]*client.Session
	created  map[string]bool
}

// NewClientExecutor wraps a client. base offsets session ids so
// concurrent executors (or a chaos tool's own sessions) don't collide.
func NewClientExecutor(cli *client.Client, base int) *ClientExecutor {
	return &ClientExecutor{
		cli:      cli,
		base:     base,
		sessions: make(map[int]*client.Session),
		created:  make(map[string]bool),
	}
}

// Setup creates the workload's initial object population.
func (e *ClientExecutor) Setup(ctx context.Context, objs []ObjectSpec) error {
	for _, o := range objs {
		if err := e.create(ctx, o.Name, o.ADT); err != nil {
			return err
		}
	}
	return nil
}

func (e *ClientExecutor) create(ctx context.Context, name, adt string) error {
	e.mu.Lock()
	done := e.created[name]
	e.mu.Unlock()
	if done {
		return nil
	}
	if err := e.cli.CreateObject(ctx, name, adt); err != nil {
		return err
	}
	e.mu.Lock()
	e.created[name] = true
	e.mu.Unlock()
	return nil
}

func (e *ClientExecutor) session(worker int) *client.Session {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.sessions[worker]
	if !ok {
		s = e.cli.Session(e.base + worker)
		e.sessions[worker] = s
	}
	return s
}

// Do executes one generated op on the worker's session.
func (e *ClientExecutor) Do(ctx context.Context, worker int, op Op) error {
	if op.Create {
		if err := e.create(ctx, op.Object, op.ADT); err != nil {
			return err
		}
	}
	_, err := e.session(worker).Invoke(ctx, op.Object, op.Input)
	return err
}

// DoAsync issues one generated op on the worker's session without
// waiting for it; the returned wait resolves it. A Create op creates
// its object first, synchronously: the invocation must not overtake
// the create, and the issue path has no context of its own.
func (e *ClientExecutor) DoAsync(worker int, op Op) func(context.Context) error {
	if op.Create {
		if err := e.create(context.Background(), op.Object, op.ADT); err != nil {
			return func(context.Context) error { return err }
		}
	}
	fut := e.session(worker).InvokeAsync(op.Object, op.Input)
	return func(ctx context.Context) error {
		_, err := fut.Get(ctx)
		return err
	}
}
