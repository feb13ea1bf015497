package main

// Spans are recorded here, in the benchmark's own files, around the
// calls into each layer's public entry points; nothing inside the
// program under test is instrumented. They stay in memory during a
// run and are written out when it ends.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/paper-repro/ccbm/cc/bench"
	"github.com/paper-repro/ccbm/cc/client"
	"github.com/paper-repro/ccbm/cc/cluster/wire"
)

// The span layers, outermost first. A span's parents are always spans
// of the layer just above it.
const (
	layerOp        = iota // one operation: Executor.Do, or a future's issue → Get
	layerTransport        // one client.Transport request
	layerRoundTrip        // one http.RoundTripper round trip, to the last body byte
	layerHandler          // one request inside cluster.NewHTTPHandler
	layerChecker          // one checker.Check call (check.windows only)
	numLayers
)

var layerNames = [numLayers]string{"op", "client.transport", "http.roundtrip", "http.handler", "checker.check"}

// spanHeader carries the round-trip span's id to the server, so the
// handler span can name the span that caused it.
const spanHeader = "X-Bench-Span"

// span is one timed interval at a layer boundary. Parents are the
// spans that caused it: exactly one, except for a batch request, which
// every operation it carries caused. Times are nanoseconds since the
// tracer's epoch.
type span struct {
	Layer   int
	ID      uint64
	Parents []uint64
	Start   int64
	End     int64
}

type spanKey struct{}

// tracer collects the spans and boundary counts of one traced run.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64

	mu    sync.Mutex
	spans []span
	// issued holds, per session, the op spans not yet carried by a
	// transport request, in issue order: a session's operations reach
	// the transport in submission order, so a request carrying k
	// operations of a session carries the k oldest.
	issued map[int][]uint64
	// Captured wire values and the operations they carried, for the
	// codec measurement.
	captured    []any
	capturedOps int

	requests  atomic.Int64 // transport requests carrying operations
	carried   atomic.Int64 // operations those requests carried
	wireBytes atomic.Int64 // request + response body bytes
}

// maxCaptured bounds the wire values (requests and responses) kept for
// the codec measurement.
const maxCaptured = 256

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), issued: make(map[int][]uint64)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops what the warm-up recorded. Every operation has completed
// by then, so no span is open.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.captured, t.capturedOps = nil, 0
	t.mu.Unlock()
	t.requests.Store(0)
	t.carried.Store(0)
	t.wireBytes.Store(0)
}

// beginOp opens an op span for the session; endOp closes it.
func (t *tracer) beginOp(session int) (id uint64, start int64) {
	id = t.next.Add(1)
	t.mu.Lock()
	t.issued[session] = append(t.issued[session], id)
	t.mu.Unlock()
	return id, t.now()
}

func (t *tracer) endOp(id uint64, start int64) {
	t.record(span{Layer: layerOp, ID: id, Start: start, End: t.now()})
}

// carry claims the session's n oldest uncarried op spans as the
// parents of a transport request.
func (t *tracer) carry(session, n int) []uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	q := t.issued[session]
	if n > len(q) {
		n = len(q)
	}
	t.issued[session] = q[n:]
	return q[:n:n]
}

func (t *tracer) capture(req, resp any, ops int) {
	t.mu.Lock()
	if len(t.captured) < maxCaptured {
		t.captured = append(t.captured, req, resp)
		t.capturedOps += ops
	}
	t.mu.Unlock()
}

// tracedExecutor records the op span around Executor.Do.
type tracedExecutor struct {
	bench.Executor
	t *tracer
}

func (e tracedExecutor) Do(ctx context.Context, worker int, op bench.Op) error {
	id, start := e.t.beginOp(worker)
	err := e.Executor.Do(ctx, worker, op)
	e.t.endOp(id, start)
	return err
}

// tracedTransport records the client.transport span around the two
// request kinds that carry operations; control requests pass through.
type tracedTransport struct {
	client.Transport
	t *tracer
}

func (tt tracedTransport) request(ctx context.Context, parents []uint64, call func(context.Context)) {
	id := tt.t.next.Add(1)
	start := tt.t.now()
	call(context.WithValue(ctx, spanKey{}, id))
	tt.t.record(span{Layer: layerTransport, ID: id, Parents: parents, Start: start, End: tt.t.now()})
	tt.t.requests.Add(1)
	tt.t.carried.Add(int64(len(parents)))
}

func (tt tracedTransport) Invoke(ctx context.Context, req *wire.InvokeRequest) (resp *wire.InvokeResponse, err error) {
	tt.request(ctx, tt.t.carry(req.Session, 1), func(ctx context.Context) {
		resp, err = tt.Transport.Invoke(ctx, req)
	})
	if err == nil {
		tt.t.capture(req, resp, 1)
	}
	return resp, err
}

func (tt tracedTransport) Batch(ctx context.Context, req *wire.BatchRequest) (resp *wire.BatchResponse, err error) {
	var parents []uint64
	for _, g := range req.Groups {
		parents = append(parents, tt.t.carry(g.Session, len(g.Ops))...)
	}
	tt.request(ctx, parents, func(ctx context.Context) {
		resp, err = tt.Transport.Batch(ctx, req)
	})
	if err == nil {
		tt.t.capture(req, resp, len(parents))
	}
	return resp, err
}

// tracedRoundTripper records the http.roundtrip span, stamps its id on
// the request, and counts body bytes. The span ends when the response
// body is closed, so it covers the bytes the client actually waits
// for.
type tracedRoundTripper struct {
	next http.RoundTripper
	t    *tracer
}

func (rt tracedRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, ok := req.Context().Value(spanKey{}).(uint64)
	if !ok {
		return rt.next.RoundTrip(req)
	}
	s := span{Layer: layerRoundTrip, ID: rt.t.next.Add(1), Parents: []uint64{parent}, Start: rt.t.now()}
	// A RoundTripper must not modify the caller's request.
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(s.ID, 10))
	if req.ContentLength > 0 {
		rt.t.wireBytes.Add(req.ContentLength)
	}
	resp, err := rt.next.RoundTrip(req)
	if err != nil {
		s.End = rt.t.now()
		rt.t.record(s)
		return nil, err
	}
	resp.Body = &countedBody{ReadCloser: resp.Body, t: rt.t, s: s}
	return resp, nil
}

type countedBody struct {
	io.ReadCloser
	t      *tracer
	s      span
	n      int64
	closed bool
}

func (b *countedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countedBody) Close() error {
	if !b.closed {
		b.closed = true
		b.s.End = b.t.now()
		b.t.record(b.s)
		b.t.wireBytes.Add(b.n)
	}
	return b.ReadCloser.Close()
}

// handler records the http.handler span around the cluster's own
// handler, for requests a traced round trip stamped.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		start := t.now()
		next.ServeHTTP(w, r)
		t.record(span{Layer: layerHandler, ID: t.next.Add(1), Parents: []uint64{parent}, Start: start, End: t.now()})
	})
}

// layerSelf is the outcome of the self-time arithmetic over one trace.
type layerSelf struct {
	Ops int64 // op spans
	// SelfNS[l] is layer l's self time summed over the operations: each
	// span's self time counts once per operation the span carried, so
	// the layers of one operation add up to its op span.
	SelfNS [numLayers]float64
	// OpNS is the summed duration of the op spans.
	OpNS float64
}

// selfTimes computes every layer's self time: a span's duration minus
// the part of its interval that its child spans cover (children that
// overlap each other are counted once).
func selfTimes(spans []span) layerSelf {
	type interval struct{ lo, hi int64 }
	children := make(map[uint64][]interval, len(spans))
	for _, s := range spans {
		for _, p := range s.Parents {
			children[p] = append(children[p], interval{s.Start, s.End})
		}
	}
	// Operations carried: 1 for an op span, the sum over its parents
	// otherwise. Parents sit one layer up, so one pass in layer order
	// resolves every span.
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return spans[order[a]].Layer < spans[order[b]].Layer })
	carried := make(map[uint64]float64, len(spans))
	var out layerSelf
	for _, i := range order {
		s := spans[i]
		w := 0.0
		if len(s.Parents) == 0 {
			w = 1
		}
		for _, p := range s.Parents {
			w += carried[p]
		}
		carried[s.ID] = w

		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].lo < kids[b].lo })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.lo, edge), min(k.hi, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out.SelfNS[s.Layer] += float64(s.End-s.Start-covered) * w
		if s.Layer == layerOp {
			out.Ops++
			out.OpNS += float64(s.End - s.Start)
		}
	}
	return out
}

// codecNSPerOp measures the JSON cost of the captured wire values:
// each request and response is marshalled once and unmarshalled once,
// which is what one request costs the client and the server together.
// It returns nanoseconds per operation carried.
func (t *tracer) codecNSPerOp() (float64, error) {
	if t.capturedOps == 0 {
		return 0, nil
	}
	const rounds = 20
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, v := range t.captured {
			b, err := json.Marshal(v)
			if err != nil {
				return 0, err
			}
			dst := reflect.New(reflect.TypeOf(v).Elem()).Interface()
			if err := json.Unmarshal(b, dst); err != nil {
				return 0, err
			}
		}
	}
	return float64(time.Since(start)) / rounds / float64(t.capturedOps), nil
}

// writeTrace writes the spans as compact rows:
// [layer, id, start_ns, end_ns, parent ids...].
func writeTrace(path, workload string, spans []span) error {
	rows := make([][]uint64, len(spans))
	for i, s := range spans {
		rows[i] = append([]uint64{uint64(s.Layer), s.ID, uint64(s.Start), uint64(s.End)}, s.Parents...)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string]any{
		"workload": workload,
		"layers":   layerNames,
		"row":      "layer, id, start_ns, end_ns, parent ids...",
		"spans":    rows,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
