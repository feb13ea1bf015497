// Package wire is the versioned wire contract between a cluster
// server (cc/cluster's HTTP front-end, cmd/ccserved) and its clients
// (cc/client, cmd/ccload): every request and response struct, the
// typed error codes with their pinned HTTP status mapping, the
// per-request read targets, and the hardened JSON decoding rules.
//
// The contract is part of the public cc facade and follows its
// compatibility rules (the API-lock test pins the surface): within a
// protocol version, fields are only added, never removed or renamed,
// and the status mapping of an error code never changes.
//
// # Protocol versions
//
//	v0  (PR 4)   ad-hoc JSON inline in cc/cluster: one round-trip per
//	             operation, errors as {"error":"message"} strings.
//	             Superseded; no longer served.
//	v1           this package: typed {"error":{"code","message"}}
//	             errors, POST /v1/batch with ordered per-session
//	             invocation groups, per-request read targets, and
//	             NDJSON verdict streaming on GET /v1/monitor/stream.
//	v1 (PR 6)    additive, same version: POST /v1/fault (scripted
//	             partition/heal/crash/restart and per-link
//	             delay/jitter/drop), GET /v1/readyz (readiness split
//	             from liveness: 503 while draining), session failover
//	             fields (InvokeRequest.Replica / BatchGroup.Replica
//	             pin a replica; Frontiers re-attach a session's causal
//	             frontier, preserving read-your-writes across
//	             failover), frontier echoes on update responses,
//	             HealthzResponse.{Shards,Replicas,Replication}, and
//	             MonitorSummary.StreamDropped. Old v1 clients ignore
//	             the new response fields; old servers reject the new
//	             request fields as unknown, which a client treats as
//	             "no failover support".
//	v1 (PR 7)    additive, same version: elastic sharding. GET
//	             /v1/ring describes the consistent-hash ring
//	             (RingResponse); requests may carry the ring epoch
//	             they were routed under (InvokeRequest.Epoch,
//	             BatchRequest.Epoch), and a server whose topology has
//	             moved on answers CodeStaleRing (421) — a retryable
//	             redirect telling the client to refresh its ring and
//	             retry; every response carries the current epoch in
//	             the X-CCBM-Ring-Epoch header; ShardStats.Drained
//	             marks shards whose objects have migrated away. A
//	             request with no epoch (0) is served unconditionally,
//	             so pre-elastic clients keep working.
//	v1 (PR 8)    additive, same version: consistency SLAs. GET
//	             /v1/staleness reports per-replica per-origin
//	             high-water timestamps (StalenessResponse); query
//	             responses piggyback the serving replica's high-water
//	             vector (InvokeResponse.HighWater) so SLA clients
//	             track staleness for free on the hot path; the
//	             ReadReplica target plus InvokeRequest.ReadReplica /
//	             BatchGroup.ReadReplica route one query to an explicit
//	             replica without moving the session (the
//	             bounded-staleness read); FaultReplicaDelay injects a
//	             per-replica serving delay (asymmetric topologies);
//	             ReadyzResponse.MaxLagUS and RingShard.ReplicaLagUS
//	             expose replication lag; StatsResponse.WeakReads
//	             counts session-unordered reads distinctly.
//	v2  (this)   the op stream: GET /v1/stream with "Connection:
//	             Upgrade" and "Upgrade: ccbm-frames" answers 101, and the
//	             connection then carries frames (a 4-byte big-endian
//	             payload length, a kind byte, a JSON payload): 'I'
//	             InvokeRequest or 'B' BatchRequest, each answered in
//	             order by 'R' (its response) or 'E' (ErrorResponse). The
//	             rules and caps of POST /v1/invoke and /v1/batch hold per
//	             frame; an oversize or unknown frame gets 'E' and ends
//	             the stream, and so does closing the cluster. Bumped:
//	             the Go client sends every op this way, and a v1 server
//	             has no stream.
//
// GET /v1/healthz reports the protocol version a server speaks, so a
// client can refuse a mismatched server instead of misparsing it.
package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"github.com/paper-repro/ccbm/cc/checker"
)

// ProtocolVersion is the wire protocol version this package defines.
// It is carried by HealthzResponse and bumped on any change an
// existing client could misparse.
const ProtocolVersion = 2

// PathPrefix is the URL prefix of every versioned endpoint.
const PathPrefix = "/v1"

// Body-size limits enforced by the server (http.MaxBytesReader, or
// the frame length on the op stream). Single-operation requests are
// tiny; only batches carry real payloads.
const (
	// MaxRequestBytes bounds every non-batch request body.
	MaxRequestBytes = 1 << 20
	// MaxBatchBytes bounds a POST /v1/batch body or a batch frame.
	MaxBatchBytes = 16 << 20
)

// ErrorCode classifies a request failure. Codes are part of the wire
// contract: clients dispatch on them (retry on CodeUnavailable, fail
// fast otherwise), so a code, once shipped, keeps its meaning and its
// HTTP status.
type ErrorCode string

const (
	// CodeBadRequest: the request is malformed — undecodable JSON,
	// unknown fields, missing required fields, an unknown ADT or read
	// target, or an out-of-range shard/replica index.
	CodeBadRequest ErrorCode = "bad_request"
	// CodeTooLarge: the request body exceeded the server's limit.
	CodeTooLarge ErrorCode = "too_large"
	// CodeNotFound: the named object does not exist.
	CodeNotFound ErrorCode = "not_found"
	// CodeConflict: the object exists with a different ADT.
	CodeConflict ErrorCode = "conflict"
	// CodeUnavailable: the cluster is draining or closed, the routed
	// replica is crash-stopped, or the replica could not catch up to
	// the request's frontier in time; the request was valid and may be
	// retried (possibly against another replica).
	CodeUnavailable ErrorCode = "unavailable"
	// CodeStaleRing: the request carried a ring epoch older than the
	// server's current topology (a shard was added or drained since the
	// client last looked). Retryable after a ring refresh (GET
	// /v1/ring); the operation itself never ran.
	CodeStaleRing ErrorCode = "stale_ring"
	// CodeInternal: the server failed to produce a response.
	CodeInternal ErrorCode = "internal"
)

// httpStatus pins the HTTP status of every error code. The table-
// driven status suite in cc/cluster asserts this mapping end to end,
// so the wire package cannot silently change a code's status.
var httpStatus = map[ErrorCode]int{
	CodeBadRequest:  http.StatusBadRequest,            // 400
	CodeTooLarge:    http.StatusRequestEntityTooLarge, // 413
	CodeNotFound:    http.StatusNotFound,              // 404
	CodeConflict:    http.StatusConflict,              // 409
	CodeUnavailable: http.StatusServiceUnavailable,    // 503
	CodeStaleRing:   http.StatusMisdirectedRequest,    // 421 — keeps CodeForStatus bijective
	CodeInternal:    http.StatusInternalServerError,   // 500
}

// HTTPStatus returns the pinned HTTP status of the code (500 for an
// unknown code: an unrecognized failure is an internal one).
func (c ErrorCode) HTTPStatus() int {
	if s, ok := httpStatus[c]; ok {
		return s
	}
	return http.StatusInternalServerError
}

// CodeForStatus is the client-side fallback mapping for responses
// whose body carried no typed error (a proxy error page, a v0
// server): the inverse of HTTPStatus where it is one, CodeInternal
// otherwise.
func CodeForStatus(status int) ErrorCode {
	for c, s := range httpStatus {
		if s == status {
			return c
		}
	}
	return CodeInternal
}

// Error is the typed wire error: a stable code plus a human-readable
// message. It implements error, so clients can errors.As on it.
type Error struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
}

// Errf builds an Error with a formatted message.
func Errf(code ErrorCode, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// Error implements the error interface.
func (e *Error) Error() string { return string(e.Code) + ": " + e.Message }

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Err *Error `json:"error"`
}

// ReadTarget is the per-request consistency target of a query
// (Pileus-style): how strongly the read is tied to its session.
type ReadTarget string

const (
	// ReadAffinity (the default, also the meaning of an empty target)
	// routes the query to the session's pinned replica, preserving the
	// paper's sequential-process view: the session reads its own
	// completed updates.
	ReadAffinity ReadTarget = "affinity"
	// ReadAny routes the query to any replica of the object's shard
	// (round-robin), trading the session guarantees for load spread:
	// the read may miss the session's own recent updates, and it is
	// excluded from the session's monitored history (it deliberately
	// left the session ordering the monitor checks).
	ReadAny ReadTarget = "any"
	// ReadReplica routes the query to the explicit replica named by
	// the request's ReadReplica field, without moving the session's
	// updates off its pinned replica — the SLA router's primitive for
	// bounded-staleness and eventual reads against a chosen replica.
	// Like ReadAny it abandons the session ordering: the read is
	// excluded from the monitored history, and counted as a weak read.
	ReadReplica ReadTarget = "replica"
)

// Valid reports whether the target is one the protocol defines (the
// empty string counts as ReadAffinity).
func (t ReadTarget) Valid() bool {
	return t == "" || t == ReadAffinity || t == ReadAny || t == ReadReplica
}

// Weak reports whether the target abandons the session ordering
// (ReadAny, ReadReplica): such reads are excluded from the monitored
// history and counted in StatsResponse.WeakReads.
func (t ReadTarget) Weak() bool {
	return t == ReadAny || t == ReadReplica
}

// CreateObjectRequest registers a named object of a registered ADT.
// POST /v1/objects; idempotent when the ADT matches.
type CreateObjectRequest struct {
	Name string `json:"name"`
	ADT  string `json:"adt"`
}

// OKResponse acknowledges a request with no payload (create, crash).
type OKResponse struct {
	OK bool `json:"ok"`
}

// HealthzResponse reports liveness, the cluster's criterion and
// topology, and the protocol version the server speaks. GET
// /v1/healthz. Liveness only — a draining server still answers OK
// here; readiness is GET /v1/readyz.
type HealthzResponse struct {
	OK        bool   `json:"ok"`
	Criterion string `json:"criterion"`
	Protocol  int    `json:"protocol"`
	// Shards and Replicas describe the topology (a failover client
	// rotates its replica pin modulo Replicas); Replication names the
	// dissemination backend ("broadcast" or "antientropy"). Zero/empty
	// on pre-PR-6 servers.
	Shards      int    `json:"shards,omitempty"`
	Replicas    int    `json:"replicas,omitempty"`
	Replication string `json:"replication,omitempty"`
}

// ReadyzResponse reports readiness to take traffic. GET /v1/readyz:
// status 200 with Ready=true while serving, 503 with Ready=false
// while draining (SIGTERM received, in-flight requests finishing) —
// so a load balancer or chaos harness can tell drain from death
// (a dead process answers neither endpoint).
type ReadyzResponse struct {
	Ready    bool `json:"ready"`
	Draining bool `json:"draining"`
	Protocol int  `json:"protocol"`
	// MaxLagUS is the largest per-replica replication lag across the
	// cluster, in microseconds: the worst componentwise deficit of any
	// replica's high-water vector against its shard's freshest — how
	// far behind the slowest replica's anti-entropy/broadcast delivery
	// is running. 0 when fully converged.
	MaxLagUS int64 `json:"max_lag_us,omitempty"`
}

// RingEpochHeader is the response header every versioned endpoint
// carries: the server's current ring epoch, so a client can notice a
// topology change from any response without polling GET /v1/ring.
const RingEpochHeader = "X-CCBM-Ring-Epoch"

// RingShard is one shard's slot in a RingResponse. Drained slots stay
// listed (indices are stable) but take no placements.
type RingShard struct {
	Shard   int  `json:"shard"`
	Active  bool `json:"active"`
	Drained bool `json:"drained,omitempty"`
	// Objects is the shard's placement load (hosted objects);
	// Invocations its served operations since start — together they
	// show both placement balance and traffic balance.
	Objects     int   `json:"objects"`
	Invocations int64 `json:"invocations"`
	// ReplicaLagUS is the per-replica replication lag (microseconds):
	// each replica's worst per-origin high-water deficit against the
	// shard-wide freshest vector. Empty on drained shards.
	ReplicaLagUS []int64 `json:"replica_lag_us,omitempty"`
}

// RingResponse describes the server's consistent-hash ring. GET
// /v1/ring. Epoch bumps on every topology change (shard added or
// drained); a client echoes it on requests (InvokeRequest.Epoch) to
// be told — via CodeStaleRing — when its view goes stale.
type RingResponse struct {
	Epoch      int64       `json:"epoch"`
	VNodes     int         `json:"vnodes"`
	LoadFactor float64     `json:"load_factor"`
	Shards     []RingShard `json:"shards"`
	Protocol   int         `json:"protocol"`
}

// ShardFrontier is one shard's causal delivery frontier: the
// per-origin count of delivered updates at the replica that served
// the request. A server echoes it on update responses in the causal
// criteria (CC, CCv); a client hands its accumulated frontiers back
// when re-attaching the session to another replica, and the new
// replica serves only once its own frontier dominates — preserving
// read-your-writes across failover. Non-causal criteria (PC, EC)
// have no frontier to exchange.
type ShardFrontier struct {
	Shard int   `json:"shard"`
	VC    []int `json:"vc"`
}

// InvokeRequest executes one operation: POST /v1/invoke, or an invoke
// frame on the op stream. All requests carrying the same session id
// must come from one sequential client.
type InvokeRequest struct {
	Session int        `json:"session"`
	Object  string     `json:"object"`
	Method  string     `json:"method"`
	Args    []int      `json:"args,omitempty"`
	Target  ReadTarget `json:"target,omitempty"`
	// Replica pins the session to an explicit replica instead of the
	// default (session id mod replica count) — the failover hook. Nil
	// keeps the default.
	Replica *int `json:"replica,omitempty"`
	// Frontiers re-attaches the session's causal frontier (see
	// ShardFrontier); the server waits until the serving replica has
	// caught up, or fails with CodeUnavailable.
	Frontiers []ShardFrontier `json:"frontiers,omitempty"`
	// Epoch is the ring epoch the client routed under; a server whose
	// topology has moved on answers CodeStaleRing instead of serving.
	// 0 (or absent) serves unconditionally.
	Epoch int64 `json:"epoch,omitempty"`
	// ReadReplica names the serving replica of a ReadReplica-target
	// query. Required (and in range) when Target is ReadReplica;
	// ignored otherwise. Unlike Replica it moves only this query, not
	// the session.
	ReadReplica *int `json:"read_replica,omitempty"`
}

// HighWater is a replica's per-origin high-water vector: HW[o] is the
// wall-clock send stamp (unix nanos) of the latest update batch the
// replica has delivered from origin o, initialized to the replica's
// birth. Piggybacked on query responses; the componentwise deficit
// against the freshest vector seen anywhere is the replica's
// staleness, which bounded-staleness SLAs compare against.
type HighWater struct {
	Shard   int     `json:"shard"`
	Replica int     `json:"replica"`
	HW      []int64 `json:"hw"`
}

// InvokeResponse is the wire form of one operation's result. Output
// is the display rendering; Bot/Vals carry the structured value.
type InvokeResponse struct {
	Output string `json:"output"`
	Bot    bool   `json:"bot"`
	Vals   []int  `json:"vals,omitempty"`
	// Frontier is the serving replica's causal frontier after an
	// update, in the causal criteria — and after a weak query (ReadAny,
	// ReadReplica), where it lets the client compare the session's
	// accumulated frontier against the serving replica's at response
	// time: dominance means the weak read delivered read-my-writes
	// anyway, the upgrade the SLA verdict machinery records. Nil
	// otherwise.
	Frontier *ShardFrontier `json:"frontier,omitempty"`
	// HighWater is the serving replica's high-water vector, piggybacked
	// on every successful operation so SLA clients track per-replica
	// staleness for free on the hot path.
	HighWater *HighWater `json:"hw,omitempty"`
}

// CrashRequest crash-stops one replica of one shard. POST /v1/crash.
type CrashRequest struct {
	Shard   int `json:"shard"`
	Replica int `json:"replica"`
}

// FaultAction names one scripted fault of a FaultRequest.
type FaultAction string

const (
	// FaultPartition cuts every link between the replica groups in
	// Groups (both directions; cuts accumulate until a heal). Messages
	// lost to the cut are recovered by the replication backend's
	// repair path after FaultHeal, if it has one (anti-entropy always;
	// broadcast only with resync enabled).
	FaultPartition FaultAction = "partition"
	// FaultHeal removes every partition cut and triggers the
	// backend's repair path on every replica.
	FaultHeal FaultAction = "heal"
	// FaultCrash crash-stops one replica: it stops receiving, its
	// queued deliveries drop, and it refuses service with
	// CodeUnavailable until restarted.
	FaultCrash FaultAction = "crash"
	// FaultRestart revives a crashed replica and triggers the repair
	// path so it catches up on what it missed.
	FaultRestart FaultAction = "restart"
	// FaultLink degrades one link: delay plus uniform jitter plus a
	// drop probability. Zero values clear the link's fault.
	FaultLink FaultAction = "link"
	// FaultLinkClear removes every per-link degradation.
	FaultLinkClear FaultAction = "link_clear"
	// FaultReplicaDelay injects a fixed serving delay (DelayUS) on one
	// replica index, across every shard: each operation served by that
	// replica sleeps the delay before answering — the asymmetric-
	// latency topology the SLA router is built to exploit. 0 clears
	// the replica's delay.
	FaultReplicaDelay FaultAction = "replica_delay"
)

// FaultRequest injects one scripted fault. POST /v1/fault. Every
// injected fault is a legal behavior of the paper's asynchronous
// system (arbitrary finite delays, message loss, crash-stop) — the
// endpoint only makes the adversary schedulable, which is what the
// chaos harness drives. Shard selects one shard; nil applies the
// fault to every shard.
type FaultRequest struct {
	Action   FaultAction `json:"action"`
	Shard    *int        `json:"shard,omitempty"`
	Replica  int         `json:"replica,omitempty"`   // crash, restart
	Groups   [][]int     `json:"groups,omitempty"`    // partition: replica groups to separate
	From     int         `json:"from,omitempty"`      // link
	To       int         `json:"to,omitempty"`        // link
	DelayUS  int64       `json:"delay_us,omitempty"`  // link: fixed delay, microseconds
	JitterUS int64       `json:"jitter_us,omitempty"` // link: uniform extra delay bound
	Drop     float64     `json:"drop,omitempty"`      // link: drop probability in [0,1]
}

// ReplicaStaleness is one replica's slice of a ShardStaleness: its
// high-water vector (see HighWater) and its lag — the worst
// per-origin deficit against the shard-wide freshest vector, in
// microseconds.
type ReplicaStaleness struct {
	HW    []int64 `json:"hw"`
	LagUS int64   `json:"lag_us"`
}

// ShardStaleness is one shard's slice of a StalenessResponse:
// Replicas[r] is replica r's high-water state. Drained shards keep
// their slot with no replicas.
type ShardStaleness struct {
	Shard    int                `json:"shard"`
	Drained  bool               `json:"drained,omitempty"`
	Replicas []ReplicaStaleness `json:"replicas,omitempty"`
}

// StalenessResponse is the cluster-wide staleness snapshot. GET
// /v1/staleness. An SLA client refreshes it periodically to re-learn
// conditions at replicas its router has been avoiding (their
// piggybacked vectors stop arriving once no reads route there).
type StalenessResponse struct {
	Shards   []ShardStaleness `json:"shards"`
	Protocol int              `json:"protocol"`
}

// BatchOp is one operation inside a batch group.
type BatchOp struct {
	Object string `json:"object"`
	Method string `json:"method"`
	Args   []int  `json:"args,omitempty"`
}

// BatchGroup is one session's ordered run of operations. The server
// executes a group's operations in slice order under the session's
// sequential discipline; distinct groups are independent sessions and
// execute concurrently (their operations commute in the paper's
// session-based causal model).
type BatchGroup struct {
	Session int        `json:"session"`
	Target  ReadTarget `json:"target,omitempty"`
	Ops     []BatchOp  `json:"ops"`
	// Replica and Frontiers are the session failover hook (see
	// InvokeRequest): pin the serving replica and wait for it to reach
	// the session's causal frontier before the group runs.
	Replica   *int            `json:"replica,omitempty"`
	Frontiers []ShardFrontier `json:"frontiers,omitempty"`
	// ReadReplica names the serving replica of the group's queries when
	// Target is ReadReplica (see InvokeRequest.ReadReplica). Updates in
	// the group still run at the session's pinned replica.
	ReadReplica *int `json:"read_replica,omitempty"`
}

// BatchRequest is an ordered set of per-session invocation groups:
// POST /v1/batch, or a batch frame on the op stream. A session id may
// appear in at most one group (two groups for one session would race
// its program order); the server rejects duplicates with
// CodeBadRequest.
type BatchRequest struct {
	Groups []BatchGroup `json:"groups"`
	// Epoch is the ring epoch the client routed under (see
	// InvokeRequest.Epoch); stale epochs fail the whole batch with
	// CodeStaleRing before any group runs.
	Epoch int64 `json:"epoch,omitempty"`
}

// BatchResult is one operation's outcome: exactly one of Output and
// Err is set. A failed operation does not abort its group; later
// operations still run (each carries its own result).
type BatchResult struct {
	Output *InvokeResponse `json:"output,omitempty"`
	Err    *Error          `json:"error,omitempty"`
}

// BatchGroupResult mirrors one BatchGroup: Results[i] is Ops[i]'s
// outcome. Frontiers carries the serving replica's causal frontier
// for every shard the group updated (causal criteria only).
type BatchGroupResult struct {
	Session   int             `json:"session"`
	Results   []BatchResult   `json:"results"`
	Frontiers []ShardFrontier `json:"frontiers,omitempty"`
}

// BatchResponse mirrors the request: Groups[i] answers request group
// i.
type BatchResponse struct {
	Groups []BatchGroupResult `json:"groups"`
}

// ShardStats is the per-shard slice of a StatsResponse. Crashed marks
// transport-level crashes (CrashReplica: the replica keeps serving
// its partitioned state wait-free); Down marks fault-injected
// crash-stops (the replica refuses service with CodeUnavailable until
// restarted).
type ShardStats struct {
	Crashed []bool `json:"crashed"`
	Down    []bool `json:"down,omitempty"`
	// Drained marks a shard whose objects have migrated away
	// (DrainShard): the slot keeps its index, but nothing serves there.
	Drained bool `json:"drained,omitempty"`
}

// StatsResponse is a point-in-time snapshot of the cluster's
// activity. GET /v1/stats.
type StatsResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Objects       int     `json:"objects"`
	Criterion     string  `json:"criterion"`
	Invocations   int64   `json:"invocations"`
	Updates       int64   `json:"updates"`
	Queries       int64   `json:"queries"`
	Applied       int64   `json:"applied"`
	Broadcasts    int64   `json:"broadcasts"`
	BatchedOps    int64   `json:"batched_ops"`
	// WeakReads counts queries served outside their session's ordering
	// (ReadAny, ReadReplica) — reads the monitor deliberately excludes
	// from its checked histories, so operators can see how much of the
	// read traffic carries the weaker guarantee.
	WeakReads int64        `json:"weak_reads,omitempty"`
	Shards    []ShardStats `json:"shards"`
}

// Verdict is the outcome of one criterion on one sampled monitor
// window (see cc/cluster.Monitor for the precise contract of a
// sampled verdict). Also the NDJSON line type of /v1/monitor/stream.
type Verdict struct {
	Object    string        `json:"object"`
	Criterion string        `json:"criterion"`
	Satisfied bool          `json:"satisfied"`
	Exhausted checker.Cause `json:"exhausted,omitempty"`
	Err       string        `json:"err,omitempty"`
	Ops       int           `json:"ops"`
	Sessions  int           `json:"sessions"`
	Explored  int64         `json:"explored"`
	ElapsedMS float64       `json:"elapsed_ms"`
}

// MonitorSummary aggregates the monitor's output so far. Exhausted
// counts verdict-less outcomes whose search ran out of its node
// budget; Errors counts hard checker failures. StreamDropped counts
// verdicts a stalled stream subscriber missed (the monitor never
// blocks on a subscriber) — a chaos run that asserts on streamed
// verdicts must check it to rule out clean-by-omission.
type MonitorSummary struct {
	SampledObjects   int       `json:"sampled_objects"`
	WindowsSubmitted int       `json:"windows_submitted"`
	WindowsDropped   int       `json:"windows_dropped"`
	Verdicts         int       `json:"verdicts"`
	Satisfied        int       `json:"satisfied"`
	Violations       []Verdict `json:"violations,omitempty"`
	Exhausted        int       `json:"exhausted"`
	Errors           int       `json:"errors"`
	StreamDropped    int       `json:"stream_dropped"`
	// CappedOps counts operations weakened or skipped because their
	// session arrived after a window already held its maximum distinct
	// sessions (MonitorConfig.MaxWindowSessions): over-cap updates are
	// recorded hidden, over-cap queries are not recorded.
	CappedOps int `json:"capped_ops,omitempty"`
}

// MonitorResponse answers GET /v1/monitor; Verdicts is populated only
// when the request asked for it (?verdicts=1).
type MonitorResponse struct {
	Summary  MonitorSummary `json:"summary"`
	Verdicts []Verdict      `json:"verdicts,omitempty"`
}

// DecodeJSON reads one JSON value from r under the protocol's
// hardening rules: unknown fields are rejected, and so is trailing
// data after the value. The caller caps r (http.MaxBytesReader for a
// request body, the frame length on the op stream); a read past an
// http.MaxBytesReader cap is CodeTooLarge. A nil return means dst is
// populated.
func DecodeJSON(r io.Reader, dst any) *Error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return Errf(CodeTooLarge, "request body exceeds %d bytes", mbe.Limit)
		}
		return Errf(CodeBadRequest, "invalid JSON: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Errf(CodeBadRequest, "trailing data after JSON value")
	}
	return nil
}
