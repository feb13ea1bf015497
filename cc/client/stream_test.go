package client_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/paper-repro/ccbm/cc/client"
	"github.com/paper-repro/ccbm/cc/cluster"
	"github.com/paper-repro/ccbm/cc/cluster/wire"
	"github.com/paper-repro/ccbm/internal/frame"
)

// streamServer serves c over HTTP and counts op-stream upgrades and
// the TCP connections the transport dials.
type streamServer struct {
	srv      *httptest.Server
	upgrades atomic.Int64
	dials    atomic.Int64
}

func newStreamServer(t *testing.T, c *cluster.Cluster) *streamServer {
	t.Helper()
	s := &streamServer{}
	h := cluster.NewHTTPHandler(c)
	s.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == wire.PathPrefix+"/stream" {
			s.upgrades.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(s.srv.Close)
	return s
}

// transport returns an HTTP transport whose dials s counts.
func (s *streamServer) transport(t *testing.T) *client.HTTPTransport {
	var d net.Dialer
	hc := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			s.dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
	}}
	tr := client.NewHTTPTransport(s.srv.URL, client.WithHTTPClient(hc))
	t.Cleanup(func() { tr.Close() })
	return tr
}

// TestStreamOneDialPerSession pins the dial count: 1,000 sequential
// ops on one session reuse one stream over one connection.
func TestStreamOneDialPerSession(t *testing.T) {
	c, err := cluster.New(cluster.Config{Monitor: cluster.MonitorConfig{Disable: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateObject("n", "Counter"); err != nil {
		t.Fatal(err)
	}
	s := newStreamServer(t, c)
	cli, err := client.New(s.transport(t))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	sess := cli.Session(1)
	for i := 0; i < 1000; i++ {
		if _, err := sess.Call(context.Background(), "n", "get"); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if u, d := s.upgrades.Load(), s.dials.Load(); u != 1 || d != 1 {
		t.Fatalf("1000 ops opened %d streams over %d dials, want 1 and 1", u, d)
	}
}

// TestStreamConcurrentSessions runs sessions on their own goroutines
// over one transport, so ops take and return pooled streams at once:
// every session reads its own writes, and no more streams are opened
// than ops ran at once.
func TestStreamConcurrentSessions(t *testing.T) {
	c, err := cluster.New(cluster.Config{Monitor: cluster.MonitorConfig{Disable: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := newStreamServer(t, c)
	cli, err := client.New(s.transport(t))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	const sessions, rounds = 8, 30
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n, err := cli.Session(i).Counter(ctx, fmt.Sprintf("c%d", i))
			if err != nil {
				t.Error(err)
				return
			}
			for k := 1; k <= rounds; k++ {
				if err := n.Inc(ctx, 1); err != nil {
					t.Errorf("session %d inc: %v", i, err)
					return
				}
				if v, err := n.Get(ctx); err != nil || v != k {
					t.Errorf("session %d read %d, %v after %d incs", i, v, err, k)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if u := s.upgrades.Load(); u < 1 || u > sessions {
		t.Fatalf("%d streams opened for %d concurrent sessions", u, sessions)
	}
}

// TestStreamCancelMidRequest cancels an op the server holds (its
// frontier is out of reach, so the server waits for it): the call
// returns with the context's error before the server answers, and the
// stream is closed, not reused.
func TestStreamCancelMidRequest(t *testing.T) {
	c, err := cluster.New(cluster.Config{Criterion: "CC", Replicas: 2, Monitor: cluster.MonitorConfig{Disable: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateObject("n", "Counter"); err != nil {
		t.Fatal(err)
	}
	s := newStreamServer(t, c)
	tr := s.transport(t)
	ctx := context.Background()
	if _, err := tr.Invoke(ctx, &wire.InvokeRequest{Session: 0, Object: "n", Method: "inc", Args: []int{1}}); err != nil {
		t.Fatal(err)
	}
	held := &wire.InvokeRequest{Session: 0, Object: "n", Method: "get",
		Frontiers: []wire.ShardFrontier{{Shard: 0, VC: []int{1 << 20, 1 << 20}}}}
	cctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := tr.Invoke(cctx, held); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("held invoke = %v, want context.DeadlineExceeded", err)
	}
	// The server holds the op for 2s before it answers unavailable.
	if el := time.Since(start); el >= time.Second {
		t.Fatalf("cancelled invoke returned after %v, not before the server answered", el)
	}
	if _, err := tr.Invoke(ctx, &wire.InvokeRequest{Session: 0, Object: "n", Method: "get"}); err != nil {
		t.Fatal(err)
	}
	if u := s.upgrades.Load(); u != 2 {
		t.Fatalf("%d streams opened, want 2: the cancelled op's stream must not be reused", u)
	}
}

// TestStreamOversizeFrame sends an invoke over wire.MaxRequestBytes:
// the client refuses it with a typed too_large error, closes that
// stream, and runs the next op on a new one. A raw stream shows the
// server's side: a frame claiming more than the cap is answered with
// too_large, and the stream ends.
func TestStreamOversizeFrame(t *testing.T) {
	c, err := cluster.New(cluster.Config{Monitor: cluster.MonitorConfig{Disable: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateObject("n", "Counter"); err != nil {
		t.Fatal(err)
	}
	s := newStreamServer(t, c)
	tr := s.transport(t)
	ctx := context.Background()
	big := &wire.InvokeRequest{Session: 1, Object: strings.Repeat("x", wire.MaxRequestBytes), Method: "get"}
	var we *wire.Error
	if _, err := tr.Invoke(ctx, big); !errors.As(err, &we) || we.Code != wire.CodeTooLarge {
		t.Fatalf("oversize invoke = %v, want wire.CodeTooLarge", err)
	}
	if _, err := tr.Invoke(ctx, &wire.InvokeRequest{Session: 1, Object: "n", Method: "get"}); err != nil {
		t.Fatal(err)
	}
	if u := s.upgrades.Load(); u != 2 {
		t.Fatalf("%d streams opened, want 2", u)
	}

	// On a raw stream: the error frame, then end of stream.
	rw := rawStream(t, s.srv.URL)
	hdr := []byte{0, 0x10, 0, 1, frame.Invoke} // 1 MiB + 1 byte claimed, never sent
	rw.Write(hdr)
	rw.Flush()
	if e := readError(t, rw.Reader); e.Code != wire.CodeTooLarge {
		t.Fatalf("raw oversize frame answered %v", e)
	}
	if _, _, err := frame.Read(rw.Reader); err == nil {
		t.Fatal("stream still open after an oversize frame")
	}
}

// TestStreamUnknownField sends a frame with a field the protocol does
// not define: it is rejected with a typed bad_request, and the stream
// goes on serving.
func TestStreamUnknownField(t *testing.T) {
	c, err := cluster.New(cluster.Config{Monitor: cluster.MonitorConfig{Disable: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateObject("n", "Counter"); err != nil {
		t.Fatal(err)
	}
	s := newStreamServer(t, c)
	rw := rawStream(t, s.srv.URL)
	for _, payload := range []string{`{"session":1,"object":"n","method":"get","bogus":1}`, `{"session":1,"object":"n","method":"get"} {}`} {
		writeRaw(rw, frame.Invoke, payload)
		if e := readError(t, rw.Reader); e.Code != wire.CodeBadRequest {
			t.Fatalf("%s answered %v, want bad_request", payload, e)
		}
	}
	if err := frame.Write(rw.Writer, frame.Invoke, wire.InvokeRequest{Session: 1, Object: "n", Method: "get"}); err != nil {
		t.Fatal(err)
	}
	if kind, _, err := frame.Read(rw.Reader); err != nil || kind != frame.Result {
		t.Fatalf("valid frame after rejected ones: kind %q, %v", kind, err)
	}
}

// TestStreamAfterClusterClose closes the cluster under open streams:
// the server ends them (http.Server.Shutdown would not), without a
// hang or a panic, and every later op, read or update, single or
// batched, gets a typed unavailable error on a new upgrade attempt.
func TestStreamAfterClusterClose(t *testing.T) {
	c, err := cluster.New(cluster.Config{Monitor: cluster.MonitorConfig{Disable: true}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateObject("n", "Counter"); err != nil {
		t.Fatal(err)
	}
	s := newStreamServer(t, c)
	tr := s.transport(t)
	ctx := context.Background()
	inc := &wire.InvokeRequest{Session: 1, Object: "n", Method: "inc", Args: []int{1}}
	if _, err := tr.Invoke(ctx, inc); err != nil {
		t.Fatal(err)
	}
	raw := rawStream(t, s.srv.URL)
	c.Close()
	if _, _, err := frame.Read(raw.Reader); !errors.Is(err, io.EOF) {
		t.Fatalf("idle stream after cluster close: %v, want io.EOF", err)
	}
	get := &wire.InvokeRequest{Session: 1, Object: "n", Method: "get"}
	batch := &wire.BatchRequest{Groups: []wire.BatchGroup{{Session: 1, Ops: []wire.BatchOp{{Object: "n", Method: "get"}}}}}
	for i, op := range []func() error{
		func() error { _, err := tr.Invoke(ctx, inc); return err },
		func() error { _, err := tr.Invoke(ctx, get); return err },
		func() error { _, err := tr.Batch(ctx, batch); return err },
	} {
		var we *wire.Error
		if err := op(); !errors.As(err, &we) || we.Code != wire.CodeUnavailable {
			t.Fatalf("op %d after cluster close = %v, want wire.CodeUnavailable", i, err)
		}
	}
	s.srv.Close()
}

// wrapBody is an http.RoundTripper that wraps every response body, as
// logging or metrics middleware does.
type wrapBody struct{ next http.RoundTripper }

func (w wrapBody) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := w.next.RoundTrip(r)
	if err == nil {
		resp.Body = struct{ io.ReadCloser }{resp.Body}
	}
	return resp, err
}

// TestStreamWrappedBody dials through a RoundTripper that hides the
// upgraded connection: the op fails at once with an error, and does
// not wait on the stream's first bytes.
func TestStreamWrappedBody(t *testing.T) {
	c, err := cluster.New(cluster.Config{Monitor: cluster.MonitorConfig{Disable: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := newStreamServer(t, c)
	tr := client.NewHTTPTransport(s.srv.URL, client.WithHTTPClient(&http.Client{Transport: wrapBody{http.DefaultTransport}}))
	defer tr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := tr.Invoke(ctx, &wire.InvokeRequest{Session: 1, Object: "n", Method: "get"}); err == nil || ctx.Err() != nil {
		t.Fatalf("invoke through a wrapping RoundTripper = %v (ctx %v), want an immediate error", err, ctx.Err())
	}
}

// rawStream upgrades one connection to the op stream by hand.
func rawStream(t *testing.T, base string) *bufio.ReadWriter {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second)) // a stream the server never ends fails, not hangs
	fmt.Fprintf(conn, "GET %s/stream HTTP/1.1\r\nHost: x\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", wire.PathPrefix, frame.Upgrade)
	rw := bufio.NewReadWriter(bufio.NewReader(conn), bufio.NewWriter(conn))
	resp, err := http.ReadResponse(rw.Reader, nil)
	if err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("upgrade: %v, %v", resp, err)
	}
	return rw
}

// writeRaw sends one frame with a literal payload.
func writeRaw(rw *bufio.ReadWriter, kind byte, payload string) {
	n := len(payload)
	rw.Write([]byte{byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n), kind})
	rw.WriteString(payload)
	rw.Flush()
}

// readError reads one response frame that must be an error frame.
func readError(t *testing.T, r *bufio.Reader) *wire.Error {
	t.Helper()
	kind, body, err := frame.Read(r)
	if err != nil || kind != frame.Error {
		t.Fatalf("want an error frame, got kind %q, %v", kind, err)
	}
	var er wire.ErrorResponse
	if err := json.NewDecoder(body).Decode(&er); err != nil || er.Err == nil {
		t.Fatalf("error frame payload: %v", err)
	}
	return er.Err
}

// TestStreamClientTimeout runs ops through an http.Client with a
// Timeout: the timeout bounds the stream's dial, not its life, so the
// ops share one stream that stays writable.
func TestStreamClientTimeout(t *testing.T) {
	c, err := cluster.New(cluster.Config{Monitor: cluster.MonitorConfig{Disable: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateObject("n", "Counter"); err != nil {
		t.Fatal(err)
	}
	s := newStreamServer(t, c)
	tr := client.NewHTTPTransport(s.srv.URL, client.WithHTTPClient(&http.Client{Timeout: 50 * time.Millisecond}))
	defer tr.Close()
	for i := 0; i < 3; i++ {
		if i > 0 {
			time.Sleep(60 * time.Millisecond) // past the Timeout
		}
		if _, err := tr.Invoke(context.Background(), &wire.InvokeRequest{Session: 1, Object: "n", Method: "inc", Args: []int{1}}); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if u := s.upgrades.Load(); u != 1 {
		t.Fatalf("%d streams opened, want 1", u)
	}
}
