package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"syscall"
	"time"

	"github.com/paper-repro/ccbm/cc/cluster"
	"github.com/paper-repro/ccbm/cc/cluster/wire"
	"github.com/paper-repro/ccbm/internal/frame"
)

// Transport carries wire requests to a cluster. Two implementations
// ship with the SDK: NewHTTPTransport speaks the versioned HTTP
// protocol of cc/cluster's front-end, and NewLoopback short-circuits
// an in-process *cluster.Cluster through exactly the same wire entry
// points (so tests and embedded uses exercise the protocol semantics
// without a socket). Errors returned by a transport are *wire.Error
// where the server produced one.
type Transport interface {
	CreateObject(ctx context.Context, req *wire.CreateObjectRequest) error
	Invoke(ctx context.Context, req *wire.InvokeRequest) (*wire.InvokeResponse, error)
	Batch(ctx context.Context, req *wire.BatchRequest) (*wire.BatchResponse, error)
	Crash(ctx context.Context, req *wire.CrashRequest) error
	// Fault injects one scripted fault (partition/heal/crash/restart,
	// per-link degradation) — the chaos harness's control channel.
	Fault(ctx context.Context, req *wire.FaultRequest) error
	// Ring fetches the server's consistent-hash ring description:
	// topology, per-shard loads, and the current ring epoch.
	Ring(ctx context.Context) (*wire.RingResponse, error)
	Stats(ctx context.Context) (*wire.StatsResponse, error)
	// Staleness fetches every replica's high-water vector and
	// replication lag — the SLA machinery's bulk condition source
	// (per-query piggybacks cover only replicas reads still land on).
	Staleness(ctx context.Context) (*wire.StalenessResponse, error)
	Monitor(ctx context.Context, verdicts bool) (*wire.MonitorResponse, error)
	// MonitorStream subscribes to the monitor's verdict stream: every
	// verdict so far, then new ones live. The channel closes when the
	// context is cancelled, the stream fails, or the server's monitor
	// closes.
	MonitorStream(ctx context.Context) (<-chan wire.Verdict, error)
	Healthz(ctx context.Context) (*wire.HealthzResponse, error)
	// Readyz reports readiness (the response arrives even when the
	// server answers 503-draining; only a transport failure errors).
	Readyz(ctx context.Context) (*wire.ReadyzResponse, error)
	// Close releases transport resources. It does not close a server.
	Close() error
}

// HTTPTransport speaks the wire protocol against a ccserved base URL.
// Invoke and Batch send frames on op streams (GET /v1/stream, wire
// protocol v2), one op at a time per stream, on the caller's
// goroutine; every other call is one HTTP request.
type HTTPTransport struct {
	base string
	hc   *http.Client

	mu     sync.Mutex
	idle   []*stream // streams no op is using, most recently used last
	closed bool      // Close ran: streams are no longer pooled
}

// maxIdleStreams bounds the idle stream pool.
const maxIdleStreams = 64

// stream is one upgraded connection, used by one op at a time.
type stream struct {
	rwc io.ReadWriteCloser
	br  *bufio.Reader
	bw  *bufio.Writer
	buf bytes.Buffer // the last response payload
}

// HTTPOption configures an HTTPTransport.
type HTTPOption func(*HTTPTransport)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// proxies, connection limits). It dials the op streams too; its Timeout
// bounds a dial, and an op on a stream is bounded by its context.
func WithHTTPClient(hc *http.Client) HTTPOption {
	return func(t *HTTPTransport) { t.hc = hc }
}

// NewHTTPTransport builds the HTTP transport for a server base URL
// such as "http://127.0.0.1:8344".
func NewHTTPTransport(baseURL string, opts ...HTTPOption) *HTTPTransport {
	t := &HTTPTransport{
		base: baseURL,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 64,
		}},
	}
	for _, o := range opts {
		o(t)
	}
	return t
}

// decodeError turns a non-2xx response into a *wire.Error, falling
// back to the status-derived code when the body carries no typed
// error (a proxy page, a pre-wire server).
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var er wire.ErrorResponse
	if json.Unmarshal(body, &er) == nil && er.Err != nil {
		return er.Err
	}
	return wire.Errf(wire.CodeForStatus(resp.StatusCode), "http %s", resp.Status)
}

// roundTrip posts (or gets, when body is nil) one wire value and
// decodes the response into out. The body is always drained so the
// connection returns to the idle pool.
func (t *HTTPTransport) roundTrip(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, t.base+wire.PathPrefix+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := t.hc.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// get fetches one wire value with GET.
func get[T any](ctx context.Context, t *HTTPTransport, path string) (*T, error) {
	var resp T
	if err := t.roundTrip(ctx, http.MethodGet, path, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func (t *HTTPTransport) CreateObject(ctx context.Context, req *wire.CreateObjectRequest) error {
	return t.roundTrip(ctx, http.MethodPost, "/objects", req, nil)
}

func (t *HTTPTransport) Invoke(ctx context.Context, req *wire.InvokeRequest) (*wire.InvokeResponse, error) {
	var resp wire.InvokeResponse
	if err := t.call(ctx, frame.Invoke, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func (t *HTTPTransport) Batch(ctx context.Context, req *wire.BatchRequest) (*wire.BatchResponse, error) {
	var resp wire.BatchResponse
	if err := t.call(ctx, frame.Batch, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// call sends one request frame on an idle stream, or a newly dialled
// one, and decodes the answer into out. A cancelled ctx closes the
// stream, which ends the wait at once. The stream is pooled again only
// after a result or a typed error that does not end it.
func (t *HTTPTransport) call(ctx context.Context, kind byte, req, out any) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s, pooled, err := t.take(ctx)
	if err != nil {
		return err
	}
	stop := context.AfterFunc(ctx, func() { s.rwc.Close() })
	err = s.roundTrip(kind, req, out)
	if !stop() {
		return ctx.Err()
	}
	if e, ok := err.(*wire.Error); err == nil || ok && e.Code != wire.CodeTooLarge {
		t.free(s)
		return err
	}
	s.rwc.Close()
	if pooled && s.br.Buffered() == 0 && (errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET)) {
		// The server ended the idle stream (its cluster closed, or it
		// restarted) before answering: send the op on another stream,
		// which a closed cluster refuses with CodeUnavailable.
		return t.call(ctx, kind, req, out)
	}
	return err
}

// take pops the most recently used idle stream, or dials one.
func (t *HTTPTransport) take(ctx context.Context) (s *stream, pooled bool, err error) {
	t.mu.Lock()
	if n := len(t.idle); n > 0 {
		s = t.idle[n-1]
		t.idle = t.idle[:n-1]
		t.mu.Unlock()
		return s, true, nil
	}
	t.mu.Unlock()
	s, err = t.dial(ctx)
	return s, false, err
}

// free pools s, or closes it if the pool is full or Close has run.
func (t *HTTPTransport) free(s *stream) {
	t.mu.Lock()
	pooled := !t.closed && len(t.idle) < maxIdleStreams
	if pooled {
		t.idle = append(t.idle, s)
	}
	t.mu.Unlock()
	if !pooled {
		s.rwc.Close()
	}
}

// dial opens a stream with GET /v1/stream. The stream outlives the op
// that dials it, so the request carries none of ctx's values, and ctx
// and t.hc's Timeout cancel only the dial (a client with a Timeout
// would hand back an upgraded connection that cannot be written).
func (t *HTTPTransport) dial(ctx context.Context) (*stream, error) {
	hc := *t.hc
	dctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	defer context.AfterFunc(ctx, cancel)()
	if hc.Timeout > 0 {
		defer time.AfterFunc(hc.Timeout, cancel).Stop()
		hc.Timeout = 0
	}
	req, err := http.NewRequestWithContext(dctx, http.MethodGet, t.base+wire.PathPrefix+"/stream", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", frame.Upgrade)
	resp, err := hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	rwc, ok := resp.Body.(io.ReadWriteCloser)
	if resp.StatusCode == http.StatusSwitchingProtocols && ok {
		return &stream{rwc: rwc, br: bufio.NewReader(rwc), bw: bufio.NewWriter(rwc)}, nil
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusSwitchingProtocols {
		// Reading this body would wait on the server for good.
		return nil, fmt.Errorf("client: the HTTP client's RoundTripper wrapped the op stream in a %T, which cannot be written", resp.Body)
	}
	return nil, decodeError(resp)
}

// roundTrip writes one request frame and decodes its answer into out;
// an error frame comes back as its *wire.Error.
func (s *stream) roundTrip(kind byte, req, out any) error {
	if err := frame.Write(s.bw, kind, req); err != nil {
		return err
	}
	kind, body, err := frame.Read(s.br)
	if err != nil {
		return err
	}
	s.buf.Reset()
	if _, err := io.CopyN(&s.buf, body, body.N); err != nil {
		return err
	}
	switch kind {
	case frame.Result:
		return json.Unmarshal(s.buf.Bytes(), out)
	case frame.Error:
		var er wire.ErrorResponse
		if json.Unmarshal(s.buf.Bytes(), &er) == nil && er.Err != nil {
			return er.Err
		}
	}
	return fmt.Errorf("client: malformed %q frame %q", kind, s.buf.Bytes())
}

func (t *HTTPTransport) Crash(ctx context.Context, req *wire.CrashRequest) error {
	return t.roundTrip(ctx, http.MethodPost, "/crash", req, nil)
}

func (t *HTTPTransport) Fault(ctx context.Context, req *wire.FaultRequest) error {
	return t.roundTrip(ctx, http.MethodPost, "/fault", req, nil)
}

// Readyz decodes the readiness body at any status: a 503 while
// draining still carries a wire.ReadyzResponse, which the caller
// wants (Ready=false) rather than an error.
func (t *HTTPTransport) Readyz(ctx context.Context) (*wire.ReadyzResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+wire.PathPrefix+"/readyz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := t.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var r wire.ReadyzResponse
	if json.Unmarshal(body, &r) == nil && r.Protocol != 0 {
		return &r, nil
	}
	return nil, wire.Errf(wire.CodeForStatus(resp.StatusCode), "http %s", resp.Status)
}

func (t *HTTPTransport) Ring(ctx context.Context) (*wire.RingResponse, error) {
	return get[wire.RingResponse](ctx, t, "/ring")
}

func (t *HTTPTransport) Stats(ctx context.Context) (*wire.StatsResponse, error) {
	return get[wire.StatsResponse](ctx, t, "/stats")
}

func (t *HTTPTransport) Staleness(ctx context.Context) (*wire.StalenessResponse, error) {
	return get[wire.StalenessResponse](ctx, t, "/staleness")
}

func (t *HTTPTransport) Monitor(ctx context.Context, verdicts bool) (*wire.MonitorResponse, error) {
	path := "/monitor"
	if verdicts {
		path += "?verdicts=1"
	}
	return get[wire.MonitorResponse](ctx, t, path)
}

func (t *HTTPTransport) MonitorStream(ctx context.Context) (<-chan wire.Verdict, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+wire.PathPrefix+"/monitor/stream", nil)
	if err != nil {
		return nil, err
	}
	resp, err := t.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	ch := make(chan wire.Verdict, 64)
	go func() {
		defer close(ch)
		defer resp.Body.Close()
		dec := json.NewDecoder(resp.Body)
		for {
			var v wire.Verdict
			if err := dec.Decode(&v); err != nil {
				return // stream ended or ctx cancelled (the transport closes the body)
			}
			select {
			case ch <- v:
			case <-ctx.Done():
				return
			}
		}
	}()
	return ch, nil
}

func (t *HTTPTransport) Healthz(ctx context.Context) (*wire.HealthzResponse, error) {
	return get[wire.HealthzResponse](ctx, t, "/healthz")
}

// Close closes the idle op streams and idle HTTP connections. A stream
// in use is closed when its op finishes.
func (t *HTTPTransport) Close() error {
	t.mu.Lock()
	idle := t.idle
	t.idle, t.closed = nil, true
	t.mu.Unlock()
	for _, s := range idle {
		s.rwc.Close()
	}
	t.hc.CloseIdleConnections()
	return nil
}

// Loopback is the in-process transport: wire requests execute
// directly against a *cluster.Cluster through the same entry points
// the HTTP front-end uses (ExecuteBatch, InvokeWire), so semantics —
// batch group ordering, read targets, typed errors — are identical to
// the networked path, minus the socket.
type Loopback struct {
	c *cluster.Cluster
}

// NewLoopback wraps an in-process cluster. The caller keeps ownership
// of the cluster (Loopback.Close does not close it).
func NewLoopback(c *cluster.Cluster) *Loopback { return &Loopback{c: c} }

func (l *Loopback) CreateObject(_ context.Context, req *wire.CreateObjectRequest) error {
	if req.Name == "" || req.ADT == "" {
		return wire.Errf(wire.CodeBadRequest, "need name and adt")
	}
	if err := l.c.CreateObject(req.Name, req.ADT); err != nil {
		return cluster.WireError(err)
	}
	return nil
}

func (l *Loopback) Invoke(_ context.Context, req *wire.InvokeRequest) (*wire.InvokeResponse, error) {
	resp, e := l.c.InvokeWire(req)
	if e != nil {
		return nil, e
	}
	return resp, nil
}

func (l *Loopback) Batch(_ context.Context, req *wire.BatchRequest) (*wire.BatchResponse, error) {
	resp, e := l.c.ExecuteBatch(req)
	if e != nil {
		return nil, e
	}
	return resp, nil
}

func (l *Loopback) Crash(_ context.Context, req *wire.CrashRequest) error {
	if err := l.c.CrashReplica(req.Shard, req.Replica); err != nil {
		return cluster.WireError(err)
	}
	return nil
}

func (l *Loopback) Fault(_ context.Context, req *wire.FaultRequest) error {
	if e := l.c.ApplyFault(req); e != nil {
		return e
	}
	return nil
}

func (l *Loopback) Readyz(context.Context) (*wire.ReadyzResponse, error) {
	draining := l.c.Draining()
	return &wire.ReadyzResponse{Ready: !draining, Draining: draining, Protocol: wire.ProtocolVersion}, nil
}

func (l *Loopback) Ring(context.Context) (*wire.RingResponse, error) {
	return l.c.RingWire(), nil
}

func (l *Loopback) Stats(context.Context) (*wire.StatsResponse, error) {
	return l.c.StatsWire(), nil
}

func (l *Loopback) Staleness(context.Context) (*wire.StalenessResponse, error) {
	return l.c.StalenessWire(), nil
}

func (l *Loopback) Monitor(_ context.Context, verdicts bool) (*wire.MonitorResponse, error) {
	resp := &wire.MonitorResponse{Summary: l.c.Monitor().Summary()}
	if verdicts {
		resp.Verdicts = l.c.Monitor().Verdicts()
	}
	return resp, nil
}

func (l *Loopback) MonitorStream(ctx context.Context) (<-chan wire.Verdict, error) {
	in, cancel := l.c.Monitor().Subscribe()
	out := make(chan wire.Verdict, 64)
	go func() {
		defer close(out)
		defer cancel()
		for {
			select {
			case v, ok := <-in:
				if !ok {
					return
				}
				select {
				case out <- v:
				case <-ctx.Done():
					return
				}
			case <-ctx.Done():
				return
			}
		}
	}()
	return out, nil
}

func (l *Loopback) Healthz(context.Context) (*wire.HealthzResponse, error) {
	return &wire.HealthzResponse{
		OK: true, Criterion: l.c.Criterion(), Protocol: wire.ProtocolVersion,
		Shards: l.c.Shards(), Replicas: l.c.Replicas(), Replication: l.c.Replication(),
	}, nil
}

// Close is a no-op: the wrapped cluster stays up.
func (l *Loopback) Close() error { return nil }

// compile-time interface checks
var (
	_ Transport = (*HTTPTransport)(nil)
	_ Transport = (*Loopback)(nil)
)

// protocolCheck rejects a healthz whose protocol version is not the
// one this SDK speaks.
func protocolCheck(h *wire.HealthzResponse) error {
	if h.Protocol != wire.ProtocolVersion {
		return fmt.Errorf("client: server speaks protocol v%d, this SDK speaks v%d", h.Protocol, wire.ProtocolVersion)
	}
	return nil
}
