package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"

	"github.com/paper-repro/ccbm/cc/cluster/wire"
	"github.com/paper-repro/ccbm/internal/frame"
)

// httpServer is the server side of the cc/cluster/wire protocol — the
// HTTP surface cmd/ccserved serves and cc/client's HTTP transport
// speaks. Every request and response body is a wire struct; every
// failure is a typed wire.Error at its pinned status.
type httpServer struct {
	c *Cluster
}

// NewHTTPHandler builds the versioned HTTP front-end for c:
//
//	POST /v1/objects         create an object             (wire.CreateObjectRequest → wire.OKResponse)
//	POST /v1/invoke          one operation                (wire.InvokeRequest → wire.InvokeResponse)
//	POST /v1/batch           per-session op groups        (wire.BatchRequest → wire.BatchResponse)
//	GET  /v1/stream          op stream (101 upgrade)      (invoke and batch frames, see wire's v2)
//	POST /v1/crash           crash-stop a replica         (wire.CrashRequest → wire.OKResponse)
//	POST /v1/fault           scripted fault injection     (wire.FaultRequest → wire.OKResponse)
//	GET  /v1/ring            consistent-hash ring + epoch (wire.RingResponse)
//	GET  /v1/staleness       per-replica high-water marks (wire.StalenessResponse)
//	GET  /v1/stats           activity snapshot            (wire.StatsResponse)
//	GET  /v1/monitor         monitor summary              (wire.MonitorResponse; ?verdicts=1 adds the full list)
//	GET  /v1/monitor/stream  NDJSON verdict stream        (one wire.Verdict per line, replay then live)
//	GET  /v1/healthz         liveness + protocol version  (wire.HealthzResponse)
//	GET  /v1/readyz          readiness: 503 while draining (wire.ReadyzResponse)
//
// Request bodies and stream frames are capped (wire.MaxRequestBytes,
// wire.MaxBatchBytes for batches), unknown JSON fields are rejected,
// and all requests carrying the same session id must come from one
// sequential client (see Session).
//
// Every response additionally carries the current ring epoch in the
// wire.RingEpochHeader header, so a client notices topology changes
// from any response without polling GET /v1/ring.
func NewHTTPHandler(c *Cluster) http.Handler {
	s := &httpServer{c: c}
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+wire.PathPrefix+"/objects", control(s.createObject))
	mux.HandleFunc("POST "+wire.PathPrefix+"/invoke", s.post(frame.Invoke))
	mux.HandleFunc("POST "+wire.PathPrefix+"/batch", s.post(frame.Batch))
	mux.HandleFunc("GET "+wire.PathPrefix+"/stream", s.stream)
	mux.HandleFunc("POST "+wire.PathPrefix+"/crash", control(func(req *wire.CrashRequest) *wire.Error {
		return WireError(c.CrashReplica(req.Shard, req.Replica))
	}))
	// One scripted fault (see fault.go and wire.FaultAction);
	// FaultRequest.Shard nil targets every shard.
	mux.HandleFunc("POST "+wire.PathPrefix+"/fault", control(c.ApplyFault))
	mux.HandleFunc("GET "+wire.PathPrefix+"/ring", s.ring)
	mux.HandleFunc("GET "+wire.PathPrefix+"/staleness", s.staleness)
	mux.HandleFunc("GET "+wire.PathPrefix+"/stats", s.stats)
	mux.HandleFunc("GET "+wire.PathPrefix+"/monitor", s.monitor)
	mux.HandleFunc("GET "+wire.PathPrefix+"/monitor/stream", s.monitorStream)
	mux.HandleFunc("GET "+wire.PathPrefix+"/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, wire.HealthzResponse{
			OK: true, Criterion: c.Criterion(), Protocol: wire.ProtocolVersion,
			Shards: c.Shards(), Replicas: c.Replicas(), Replication: c.Replication(),
		})
	})
	mux.HandleFunc("GET "+wire.PathPrefix+"/readyz", func(w http.ResponseWriter, _ *http.Request) {
		draining := c.Draining()
		status := http.StatusOK
		if draining {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, wire.ReadyzResponse{
			Ready: !draining, Draining: draining, Protocol: wire.ProtocolVersion,
			MaxLagUS: c.MaxLagUS(),
		})
	})
	return epochHeader(c, mux)
}

// epochHeader stamps the current ring epoch on every response.
func epochHeader(c *Cluster, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(wire.RingEpochHeader, strconv.FormatInt(c.RingEpoch(), 10))
		next.ServeHTTP(w, r)
	})
}

// writeJSON marshals first and only then writes, so an encoding
// failure becomes a proper 500 instead of a silently truncated 200
// body. A write error after a successful marshal means the client
// went away; there is no one left to tell.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		e := wire.Errf(wire.CodeInternal, "encode response: %v", err)
		b, _ = json.Marshal(wire.ErrorResponse{Err: e})
		code = e.Code.HTTPStatus()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(b, '\n'))
}

// writeErr writes a typed wire error at its pinned status.
func writeErr(w http.ResponseWriter, e *wire.Error) {
	writeJSON(w, e.Code.HTTPStatus(), wire.ErrorResponse{Err: e})
}

// control serves a control request: a T body, answered with
// wire.OKResponse once do accepts it.
func control[T any](do func(*T) *wire.Error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req T
		e := wire.DecodeJSON(http.MaxBytesReader(w, r.Body, wire.MaxRequestBytes), &req)
		if e == nil {
			e = do(&req)
		}
		if e != nil {
			writeErr(w, e)
			return
		}
		writeJSON(w, http.StatusOK, wire.OKResponse{OK: true})
	}
}

func (s *httpServer) createObject(req *wire.CreateObjectRequest) *wire.Error {
	if req.Name == "" || req.ADT == "" {
		return wire.Errf(wire.CodeBadRequest, "need name and adt")
	}
	return WireError(s.c.CreateObject(req.Name, req.ADT))
}

// post serves POST /v1/invoke or /v1/batch: one request body of the
// given frame kind.
func (s *httpServer) post(kind byte) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		resp, e := s.dispatch(kind, http.MaxBytesReader(w, r.Body, frame.Max(kind)))
		if e != nil {
			writeErr(w, e)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// dispatch decodes one invoke or batch request from body and executes
// it: the one entry point of POST /v1/invoke, POST /v1/batch and the
// op stream.
func (s *httpServer) dispatch(kind byte, body io.Reader) (any, *wire.Error) {
	if kind == frame.Batch {
		var req wire.BatchRequest
		if e := wire.DecodeJSON(body, &req); e != nil {
			return nil, e
		}
		return s.c.ExecuteBatch(&req)
	}
	var req wire.InvokeRequest
	if e := wire.DecodeJSON(body, &req); e != nil {
		return nil, e
	}
	return s.c.InvokeWire(&req)
}

// stream upgrades the connection to the op stream (wire protocol v2)
// and answers its frames until the client closes it or the cluster
// closes. The connection is hijacked, so http.Server.Shutdown does not
// wait for it, and Cluster.Close ends it instead.
func (s *httpServer) stream(w http.ResponseWriter, r *http.Request) {
	if !strings.EqualFold(r.Header.Get("Upgrade"), frame.Upgrade) {
		writeErr(w, wire.Errf(wire.CodeBadRequest, "need Upgrade: %s", frame.Upgrade))
		return
	}
	if s.c.closing.Err() != nil {
		writeErr(w, WireError(ErrClosed))
		return
	}
	conn, rw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		writeErr(w, wire.Errf(wire.CodeInternal, "hijack: %v", err))
		return
	}
	defer conn.Close()
	defer context.AfterFunc(s.c.closing, func() { conn.Close() })()
	rw.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + frame.Upgrade + "\r\n\r\n")
	if rw.Flush() == nil {
		serveFrames(rw, s.dispatch)
	}
}

// serveFrames answers the request frames read from rw, in order, with
// what dispatch returns, until the peer goes away. A frame of unknown
// kind or over its cap is answered with an error frame that ends the
// stream, as its payload is left unread.
func serveFrames(rw *bufio.ReadWriter, dispatch func(kind byte, body io.Reader) (any, *wire.Error)) {
	for {
		kind, body, err := frame.Read(rw.Reader)
		if err == nil && kind != frame.Invoke && kind != frame.Batch {
			err = wire.Errf(wire.CodeBadRequest, "unknown frame kind %q", kind)
		}
		if e, ok := err.(*wire.Error); ok {
			frame.Write(rw.Writer, frame.Error, wire.ErrorResponse{Err: e})
			return
		} else if err != nil {
			return
		}
		resp, e := dispatch(kind, body)
		if _, err := io.Copy(io.Discard, body); err != nil {
			return
		}
		if e != nil {
			err = frame.Write(rw.Writer, frame.Error, wire.ErrorResponse{Err: e})
		} else {
			err = frame.Write(rw.Writer, frame.Result, resp)
		}
		if err != nil {
			return
		}
	}
}

func (s *httpServer) ring(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.c.RingWire())
}

func (s *httpServer) staleness(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.c.StalenessWire())
}

func (s *httpServer) stats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.c.StatsWire())
}

func (s *httpServer) monitor(w http.ResponseWriter, r *http.Request) {
	resp := wire.MonitorResponse{Summary: s.c.Monitor().Summary()}
	if r.URL.Query().Get("verdicts") != "" {
		resp.Verdicts = s.c.Monitor().Verdicts()
	}
	writeJSON(w, http.StatusOK, resp)
}

// monitorStream streams verdicts as NDJSON — every verdict so far,
// then new ones live as the classifier emits them — until the client
// disconnects or the monitor closes.
func (s *httpServer) monitorStream(w http.ResponseWriter, r *http.Request) {
	ch, cancel := s.c.Monitor().Subscribe()
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Push the headers out before the first verdict exists, so a
		// subscriber to a quiet monitor gets a live stream instead of
		// blocking on buffered headers.
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	for {
		select {
		case v, ok := <-ch:
			if !ok {
				return
			}
			if err := enc.Encode(v); err != nil {
				return // client gone
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}
