package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/paper-repro/ccbm/cc"
	"github.com/paper-repro/ccbm/cc/client"
	"github.com/paper-repro/ccbm/cc/cluster"
	"github.com/paper-repro/ccbm/cc/cluster/wire"
)

// newMonitoredCluster builds a CCv cluster whose monitor samples
// every object and whose windows only finalize at Close (WindowOps
// far above the traffic), so both per-op and batched runs submit
// identical complete windows.
func newMonitoredCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		Shards:    2,
		Replicas:  3,
		Criterion: "CCv",
		BatchOps:  8,
		Monitor: cluster.MonitorConfig{
			SampleEvery: 1,
			WindowOps:   10_000,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// verdictKey is the comparable part of a verdict: what was checked
// and what came out (timings and explored counts legitimately vary).
type verdictKey struct {
	Object    string
	Criterion string
	Satisfied bool
	Ops       int
	Sessions  int
}

func verdictKeys(t *testing.T, vs []wire.Verdict) []verdictKey {
	t.Helper()
	keys := make([]verdictKey, 0, len(vs))
	for _, v := range vs {
		if v.Err != "" || v.Exhausted != "" {
			t.Fatalf("verdict neither clean nor decided: %+v", v)
		}
		keys = append(keys, verdictKey{v.Object, v.Criterion, v.Satisfied, v.Ops, v.Sessions})
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Object != keys[j].Object {
			return keys[i].Object < keys[j].Object
		}
		return keys[i].Criterion < keys[j].Criterion
	})
	return keys
}

// driveRegisters runs the deterministic per-session workload —
// session i owns register "reg-i" and alternates w(k)/r — and
// returns the observed read values per session. The workload and its
// expected outputs are identical whether cli batches or not.
func driveRegisters(t *testing.T, cli *client.Client, sessions, rounds int) [][]int {
	t.Helper()
	ctx := context.Background()
	got := make([][]int, sessions)
	var wg sync.WaitGroup
	for sess := 0; sess < sessions; sess++ {
		wg.Add(1)
		go func(sess int) {
			defer wg.Done()
			s := cli.Session(sess)
			name := fmt.Sprintf("reg-%d", sess)
			reg, err := s.Register(ctx, name)
			if err != nil {
				t.Errorf("session %d: %v", sess, err)
				return
			}
			for k := 1; k <= rounds; k++ {
				reg.WriteAsync(k) // pipelined under batching
				v, err := reg.Read(ctx)
				if err != nil {
					t.Errorf("session %d read: %v", sess, err)
					return
				}
				got[sess] = append(got[sess], v)
			}
		}(sess)
	}
	wg.Wait()
	return got
}

// TestBatchMatchesPerOp is the batch-semantics round trip: the same
// deterministic workload driven per-op and batched/pipelined must
// yield the same outputs (per-session ordering: every read observes
// the session's latest write) and the same monitor verdicts on
// identical complete windows.
func TestBatchMatchesPerOp(t *testing.T) {
	const sessions, rounds = 4, 25
	run := func(batched bool) ([][]int, []verdictKey) {
		c := newMonitoredCluster(t)
		var opts []client.Option
		if batched {
			opts = append(opts, client.WithBatching(16, 200*time.Microsecond))
		}
		cli, err := client.New(client.NewLoopback(c), opts...)
		if err != nil {
			t.Fatal(err)
		}
		got := driveRegisters(t, cli, sessions, rounds)
		if err := cli.Close(); err != nil {
			t.Fatal(err)
		}
		c.Close()
		sum := c.Monitor().Summary()
		if sum.Verdicts == 0 {
			t.Fatal("monitor produced no verdicts")
		}
		return got, verdictKeys(t, c.Monitor().Verdicts())
	}

	perOp, perOpVerdicts := run(false)
	batched, batchedVerdicts := run(true)

	for sess := 0; sess < sessions; sess++ {
		for k := 1; k <= rounds; k++ {
			if perOp[sess][k-1] != k {
				t.Fatalf("per-op: session %d read %d after writing %d", sess, perOp[sess][k-1], k)
			}
			if batched[sess][k-1] != k {
				t.Fatalf("batched: session %d read %d after writing %d", sess, batched[sess][k-1], k)
			}
		}
	}
	if len(perOpVerdicts) != len(batchedVerdicts) {
		t.Fatalf("verdict count differs: per-op %d, batched %d", len(perOpVerdicts), len(batchedVerdicts))
	}
	for i := range perOpVerdicts {
		if perOpVerdicts[i] != batchedVerdicts[i] {
			t.Fatalf("verdict %d differs:\nper-op  %+v\nbatched %+v", i, perOpVerdicts[i], batchedVerdicts[i])
		}
	}
	for _, v := range batchedVerdicts {
		if !v.Satisfied {
			t.Fatalf("batched run violated its criterion: %+v", v)
		}
		if v.Ops != 2*rounds || v.Sessions != 1 {
			t.Fatalf("window shape drifted: %+v", v)
		}
	}
}

// TestPipelinedSessionOrdering hammers one session with deeply
// pipelined async ops across many small batches: every read future
// must return the session's latest preceding write, proving program
// order survives batching across batch boundaries.
func TestPipelinedSessionOrdering(t *testing.T) {
	c := newMonitoredCluster(t)
	defer c.Close()
	cli, err := client.New(client.NewLoopback(c),
		client.WithBatching(4, 100*time.Microsecond), client.WithMaxInflight(8))
	if err != nil {
		t.Fatal(err)
	}
	s := cli.Session(1)
	if _, err := s.Object(context.Background(), "r", "Register"); err != nil {
		t.Fatal(err)
	}
	const n = 200
	reads := make([]*client.Future, 0, n)
	for i := 1; i <= n; i++ {
		s.CallAsync("r", "w", i)
		reads = append(reads, s.CallAsync("r", "r"))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, f := range reads {
		out, err := f.Get(ctx)
		if err != nil {
			t.Fatalf("read %d: %v", i+1, err)
		}
		if !out.Equal(cc.IntOutput(i + 1)) {
			t.Fatalf("read %d returned %s, want %d", i+1, out.String(), i+1)
		}
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSharedObjectReadYourWrites drives one shared counter from many
// batched sessions concurrently: each session's read must be at least
// the sum of its own completed increments, and the monitor's CCv
// verdict on the shared window must be satisfied.
func TestSharedObjectReadYourWrites(t *testing.T) {
	c := newMonitoredCluster(t)
	cli, err := client.New(client.NewLoopback(c), client.WithBatching(32, 200*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const sessions, rounds = 4, 10
	var wg sync.WaitGroup
	for sess := 0; sess < sessions; sess++ {
		wg.Add(1)
		go func(sess int) {
			defer wg.Done()
			s := cli.Session(sess)
			cnt, err := s.Counter(ctx, "shared")
			if err != nil {
				t.Errorf("session %d: %v", sess, err)
				return
			}
			mine := 0
			for i := 0; i < rounds; i++ {
				cnt.IncAsync(1)
				mine++
				got, err := cnt.Get(ctx)
				if err != nil {
					t.Errorf("session %d get: %v", sess, err)
					return
				}
				if got < mine {
					t.Errorf("session %d read %d below its own %d increments", sess, got, mine)
					return
				}
			}
		}(sess)
	}
	wg.Wait()
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	sum := c.Monitor().Summary()
	if sum.Verdicts == 0 {
		t.Fatal("monitor produced no verdicts")
	}
	if len(sum.Violations) > 0 {
		t.Fatalf("monitor violations under batching: %+v", sum.Violations)
	}
}

// TestHTTPTransportEndToEnd runs the SDK over real HTTP (httptest):
// typed handles, batching, typed errors, the protocol handshake and
// the NDJSON verdict stream.
func TestHTTPTransportEndToEnd(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		Criterion: "CC",
		Replicas:  2,
		Monitor:   cluster.MonitorConfig{SampleEvery: 1, WindowOps: 6, Grace: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(cluster.NewHTTPHandler(c))
	defer srv.Close()
	defer c.Close()

	cli, err := client.New(client.NewHTTPTransport(srv.URL), client.WithBatching(8, 200*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()

	h, err := cli.Health(ctx)
	if err != nil {
		t.Fatalf("health: %v", err)
	}
	if h.Protocol != wire.ProtocolVersion || h.Criterion != "CC" {
		t.Fatalf("healthz = %+v", h)
	}

	s := cli.Session(1)
	cnt, err := s.Counter(ctx, "hits")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		cnt.IncAsync(2)
	}
	n, err := cnt.Get(ctx)
	if err != nil || n != 12 {
		t.Fatalf("get = %d, %v; want 12", n, err)
	}

	q, err := s.Queue(ctx, "jobs")
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Push(ctx, 7); err != nil {
		t.Fatal(err)
	}
	v, ok, err := q.Pop(ctx)
	if err != nil || !ok || v != 7 {
		t.Fatalf("pop = %d, %v, %v; want 7", v, ok, err)
	}
	if _, ok, err := q.Pop(ctx); err != nil || ok {
		t.Fatalf("pop on empty = ok=%v err=%v", ok, err)
	}

	// Typed errors survive the wire.
	_, err = s.Call(ctx, "ghost", "get")
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeNotFound {
		t.Fatalf("ghost invoke error = %v, want wire.CodeNotFound", err)
	}
	if _, err := s.Object(ctx, "hits", "Register"); !errors.As(err, &we) || we.Code != wire.CodeConflict {
		t.Fatalf("conflicting create error = %v, want wire.CodeConflict", err)
	}
	if _, err := s.Call(ctx, "hits", "frobnicate"); !errors.As(err, &we) || we.Code != wire.CodeBadRequest {
		t.Fatalf("unknown method error = %v, want wire.CodeBadRequest", err)
	}

	// The stats round trip reports the traffic.
	st, err := cli.Stats(ctx)
	if err != nil || st.Invocations == 0 {
		t.Fatalf("stats = %+v, %v", st, err)
	}

	// The verdict stream replays and then follows live verdicts; the
	// 6-op window on "hits" has filled, so at least one verdict must
	// arrive without closing the cluster.
	streamCtx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	ch, err := cli.WatchVerdicts(streamCtx)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case v, ok := <-ch:
		if !ok {
			t.Fatal("verdict stream closed without a verdict")
		}
		if v.Object == "" || v.Criterion != "CC" {
			t.Fatalf("stream verdict = %+v", v)
		}
	case <-streamCtx.Done():
		t.Fatal("no verdict on the stream within the deadline")
	}
}

// TestReadAnyTarget pins the ReadAny contract: the read is served
// (possibly stale), and it leaves the session's monitored history —
// the sampled window holds only the affinity ops.
func TestReadAnyTarget(t *testing.T) {
	c := newMonitoredCluster(t)
	cli, err := client.New(client.NewLoopback(c))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s := cli.Session(3)
	reg, err := s.Register(ctx, "r")
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 3; k++ {
		if err := reg.Write(ctx, k); err != nil {
			t.Fatal(err)
		}
	}
	if v, err := reg.Read(ctx); err != nil || v != 3 {
		t.Fatalf("affinity read = %d, %v; want 3", v, err)
	}
	any := s.WithTarget(wire.ReadAny)
	for i := 0; i < 9; i++ {
		if _, err := any.Call(ctx, "r", "r"); err != nil {
			t.Fatalf("ReadAny read: %v", err)
		}
	}
	// An unknown target is rejected with a typed error.
	var we *wire.Error
	if _, err := s.WithTarget("bogus").Call(ctx, "r", "r"); !errors.As(err, &we) || we.Code != wire.CodeBadRequest {
		t.Fatalf("bogus target error = %v", err)
	}
	cli.Close()
	c.Close()
	vs := c.Monitor().Verdicts()
	if len(vs) == 0 {
		t.Fatal("no verdicts")
	}
	for _, v := range vs {
		if v.Ops != 4 { // 3 writes + 1 affinity read; the 9 ReadAny reads are excluded
			t.Fatalf("window ops = %d, want 4 (ReadAny reads must not be recorded): %+v", v.Ops, v)
		}
		if !v.Satisfied {
			t.Fatalf("violation: %+v", v)
		}
	}
}

// TestClientValidationAndClose pins option validation and the closed
// client's behavior.
func TestClientValidationAndClose(t *testing.T) {
	c, err := cluster.New(cluster.Config{Monitor: cluster.MonitorConfig{Disable: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := client.New(client.NewLoopback(c), client.WithReadTarget("bogus")); err == nil {
		t.Fatal("bogus read target accepted")
	}
	if _, err := client.New(client.NewLoopback(c), client.WithBatching(0, time.Millisecond)); err == nil {
		t.Fatal("zero batch size accepted")
	}
	if _, err := client.New(client.NewLoopback(c), client.WithMaxInflight(0)); err == nil {
		t.Fatal("zero inflight accepted")
	}
	cli, err := client.New(client.NewLoopback(c), client.WithBatching(4, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s := cli.Session(0)
	if _, err := s.Counter(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(); err != nil {
		t.Fatal("second close must be a no-op")
	}
	if _, err := s.Call(ctx, "x", "get"); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("invoke after close = %v, want ErrClosed", err)
	}
	if _, err := s.CallAsync("x", "inc", 1).Get(ctx); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("async invoke after close = %v, want ErrClosed", err)
	}
}

// stackTransport records, for every Invoke, whether the goroutine
// running it has the calling test's frame on its stack.
type stackTransport struct {
	fakeTransport
	frame    string
	onCaller []bool
}

func (s *stackTransport) Invoke(ctx context.Context, req *wire.InvokeRequest) (*wire.InvokeResponse, error) {
	buf := make([]byte, 64<<10)
	stack := string(buf[:runtime.Stack(buf, false)])
	s.mu.Lock()
	s.onCaller = append(s.onCaller, strings.Contains(stack, s.frame))
	s.mu.Unlock()
	return s.fakeTransport.Invoke(ctx, req)
}

// TestInvokeRunsOnCaller pins who runs a synchronous unbatched op: with
// a context that can never be cancelled the round trip runs on the
// caller's goroutine; with a cancellable one it runs on its own
// goroutine, so the context can abandon the wait.
func TestInvokeRunsOnCaller(t *testing.T) {
	tr := &stackTransport{frame: "client_test.TestInvokeRunsOnCaller("}
	cli, err := client.New(tr)
	if err != nil {
		t.Fatal(err)
	}
	s := cli.Session(1)
	if _, err := s.Call(context.Background(), "x", "w", 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := s.Call(ctx, "x", "w", 2); err != nil {
		t.Fatal(err)
	}
	if want := []bool{true, false}; fmt.Sprint(tr.onCaller) != fmt.Sprint(want) {
		t.Fatalf("ran on the caller's goroutine: %v, want %v (Background, cancellable)", tr.onCaller, want)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Call(context.Background(), "x", "r"); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("invoke after close = %v, want ErrClosed", err)
	}
}

// TestInvokeBehindPendingAsync checks that a synchronous op run on the
// caller's goroutine still waits behind the session's pending async
// ops: each read follows an unawaited write and must return it.
func TestInvokeBehindPendingAsync(t *testing.T) {
	c, err := cluster.New(cluster.Config{Monitor: cluster.MonitorConfig{Disable: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cli, err := client.New(client.NewLoopback(c))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()
	s := cli.Session(1)
	if _, err := s.Object(ctx, "r", "Register"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 200; i++ {
		s.CallAsync("r", "w", i)
		out, err := s.Call(ctx, "r", "r")
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !out.Equal(cc.IntOutput(i)) {
			t.Fatalf("read %d returned %s, want %d", i, out.String(), i)
		}
	}
}

// gateTransport holds its first Invoke until release is closed and
// notes whether any later Invoke began before the first returned.
type gateTransport struct {
	fakeTransport
	release       chan struct{}
	entered       chan struct{} // one send per Invoke
	firstReturned atomic.Bool
	early         atomic.Bool // a later op reached the wire too soon
}

func (g *gateTransport) Invoke(ctx context.Context, req *wire.InvokeRequest) (*wire.InvokeResponse, error) {
	first := g.count() == 0
	if !first && !g.firstReturned.Load() {
		g.early.Store(true)
	}
	resp, err := g.fakeTransport.Invoke(ctx, req)
	g.entered <- struct{}{}
	if first {
		<-g.release
		g.firstReturned.Store(true)
	}
	return resp, err
}

// TestInvokeCancelAbandonsWait checks that a cancelled context ends
// the caller's wait while the op is still on the wire, and that the
// session's next op reaches the transport only after that op returns.
func TestInvokeCancelAbandonsWait(t *testing.T) {
	tr := &gateTransport{release: make(chan struct{}), entered: make(chan struct{}, 2)}
	cli, err := client.New(tr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	s := cli.Session(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Call(ctx, "x", "w", 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled invoke = %v, want context.Canceled", err)
	}
	<-tr.entered // the abandoned op is on the wire
	next := make(chan error, 1)
	go func() {
		_, err := s.Call(context.Background(), "x", "w", 2)
		next <- err
	}()
	select {
	case <-tr.entered:
		t.Fatal("next op reached the transport while the abandoned op was on the wire")
	case <-time.After(50 * time.Millisecond):
	}
	close(tr.release)
	if err := <-next; err != nil {
		t.Fatal(err)
	}
	if tr.early.Load() || tr.count() != 2 {
		t.Fatalf("next op ran early=%v, transport calls=%d, want false, 2", tr.early.Load(), tr.count())
	}
}

// postTransport sends Invoke and Batch as POST /v1/invoke and POST
// /v1/batch, the server's other entry path.
type postTransport struct {
	*client.HTTPTransport
	base string
}

func (p postTransport) Invoke(ctx context.Context, req *wire.InvokeRequest) (*wire.InvokeResponse, error) {
	var resp wire.InvokeResponse
	return &resp, post(ctx, p.base+wire.PathPrefix+"/invoke", req, &resp)
}

func (p postTransport) Batch(ctx context.Context, req *wire.BatchRequest) (*wire.BatchResponse, error) {
	var resp wire.BatchResponse
	return &resp, post(ctx, p.base+wire.PathPrefix+"/batch", req, &resp)
}

func post(ctx context.Context, url string, req, out any) error {
	b, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var er wire.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Err == nil {
			return fmt.Errorf("http %s", resp.Status)
		}
		return er.Err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// render is the comparable part of one op's outcome: its output, or
// its error code (high-water stamps and frontiers carry wall-clock
// and delivery timing).
func render(r *wire.InvokeResponse, err error) string {
	var we *wire.Error
	switch {
	case errors.As(err, &we):
		return "error:" + string(we.Code)
	case err != nil:
		return "transport error: " + err.Error()
	}
	return fmt.Sprintf("%s bot=%v vals=%v", r.Output, r.Bot, r.Vals)
}

// driveSeeded sends one seeded stream of invocations and batches
// through tr, one at a time, and returns every outcome in order.
// Session i owns objects c<i> and r<i>, so each outcome is a function
// of the stream alone.
func driveSeeded(t *testing.T, tr client.Transport, seed int64, steps int) []string {
	t.Helper()
	ctx := context.Background()
	const sessions = 4
	for i := 0; i < sessions; i++ {
		for _, o := range []struct{ name, adt string }{{fmt.Sprintf("c%d", i), "Counter"}, {fmt.Sprintf("r%d", i), "Register"}} {
			if err := tr.CreateObject(ctx, &wire.CreateObjectRequest{Name: o.name, ADT: o.adt}); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	op := func(sess int) wire.BatchOp {
		switch rng.Intn(9) {
		case 0, 1:
			return wire.BatchOp{Object: fmt.Sprintf("c%d", sess), Method: "inc", Args: []int{1 + rng.Intn(5)}}
		case 2, 3:
			return wire.BatchOp{Object: fmt.Sprintf("c%d", sess), Method: "get"}
		case 4, 5:
			return wire.BatchOp{Object: fmt.Sprintf("r%d", sess), Method: "w", Args: []int{rng.Intn(100)}}
		case 6, 7:
			return wire.BatchOp{Object: fmt.Sprintf("r%d", sess), Method: "r"}
		}
		return wire.BatchOp{Object: "ghost", Method: "get"}
	}
	var got []string
	for step := 0; step < steps; step++ {
		if rng.Intn(5) > 0 {
			sess := rng.Intn(sessions)
			o := op(sess)
			got = append(got, render(tr.Invoke(ctx, &wire.InvokeRequest{Session: sess, Object: o.Object, Method: o.Method, Args: o.Args})))
			continue
		}
		var req wire.BatchRequest
		for _, sess := range rng.Perm(sessions)[:2] {
			g := wire.BatchGroup{Session: sess}
			for k := 0; k < 3; k++ {
				g.Ops = append(g.Ops, op(sess))
			}
			req.Groups = append(req.Groups, g)
		}
		resp, err := tr.Batch(ctx, &req)
		if err != nil {
			t.Fatalf("batch: %v", err)
		}
		for _, g := range resp.Groups {
			for _, r := range g.Results {
				if r.Err != nil {
					got = append(got, render(nil, r.Err))
				} else {
					got = append(got, render(r.Output, nil))
				}
			}
		}
	}
	return got
}

// TestStreamMatchesPost sends one seeded op stream through POST
// /v1/invoke and /v1/batch and through the op stream: the outputs and
// the monitor's verdicts must be identical.
func TestStreamMatchesPost(t *testing.T) {
	run := func(viaPost bool) ([]string, []verdictKey) {
		c := newMonitoredCluster(t)
		s := newStreamServer(t, c)
		var tr client.Transport = s.transport(t)
		if viaPost {
			tr = postTransport{HTTPTransport: s.transport(t), base: s.srv.URL}
		}
		got := driveSeeded(t, tr, 7, 300)
		c.Close()
		if viaPost != (s.upgrades.Load() == 0) {
			t.Fatalf("post=%v run opened %d streams", viaPost, s.upgrades.Load())
		}
		return got, verdictKeys(t, c.Monitor().Verdicts())
	}
	posted, postVerdicts := run(true)
	streamed, streamVerdicts := run(false)
	if len(posted) != len(streamed) {
		t.Fatalf("%d outcomes via POST, %d via the stream", len(posted), len(streamed))
	}
	for i := range posted {
		if posted[i] != streamed[i] {
			t.Fatalf("outcome %d: POST %q, stream %q", i, posted[i], streamed[i])
		}
	}
	if len(postVerdicts) == 0 || fmt.Sprint(postVerdicts) != fmt.Sprint(streamVerdicts) {
		t.Fatalf("verdicts differ:\nPOST   %+v\nstream %+v", postVerdicts, streamVerdicts)
	}
}
