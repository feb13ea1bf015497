// Package ccbm is a Go reproduction of "Causal Consistency: Beyond
// Memory" (Perrin, Mostéfaoui, Jard — PPoPP 2016): a framework for
// specifying shared objects by sequential transition systems and
// consistency criteria, exact checkers for the paper's criteria
// hierarchy (SC, PC, WCC, CC, CCv, EC/UC, causal memory, session
// guarantees, plus linearizability on interval-timed histories), a
// wait-free replicated-object runtime over a simulated asynchronous
// message-passing system with reliable causal broadcast, the paper's
// two window-stream algorithms (Fig. 4 and Fig. 5), an op-based CRDT
// library realizing the eventual-consistency branch natively, an
// exhaustive hierarchy census, and consensus-number demonstrations
// (W_k and CAS).
//
// # Public API
//
// The library is consumed through the cc facade — the contract — while
// the engine lives under internal/ and may change freely:
//
//   - cc: the sequential-specification model (operations, inputs,
//     outputs, ADTs) and the textual ADT registry.
//   - cc/histories: distributed histories, their builder, and the text
//     formats the tools speak.
//   - cc/checker: the criteria themselves — a string-keyed registry
//     (checker.Register / Lookup / All) dispatching built-in and
//     user-defined criteria uniformly, context-aware checking
//     (checker.Check(ctx, "CC", h, opts...) with WithBudget,
//     WithPruning, WithTimeout), a unified Result
//     (verdict, witness, explored nodes, wall time, exhaustion cause,
//     pruning counters), and the streaming batch Classifier.
//   - cc/cluster: the serving layer — a live, sharded multi-object
//     service over the Sec. 6 runtime (named objects of any registered
//     ADT, hash-sharded replica groups, batched causal broadcast,
//     per-session replica affinity, crash injection) with an online
//     monitor that streams sampled per-object timed windows back into
//     the Classifier, so a running cluster continuously spot-checks
//     the criterion it claims. cmd/ccserved serves it over HTTP and
//     cmd/ccload load-tests it with cc/bench scenarios (mixed by
//     default; BENCH_runtime.json records measured runs); see the
//     package docs for the exact verdict contract.
//   - cc/cluster/wire: the versioned wire protocol of the serving
//     layer — request/response structs, typed error codes with a
//     pinned HTTP status table, per-request read targets, batch
//     groups, NDJSON verdict streaming. Protocol v2: v1's endpoints
//     plus the framed op stream (GET /v1/stream); v0 (the ad-hoc PR 4
//     JSON surface) is no longer served. GET /v1/healthz reports the
//     version a server speaks.
//   - cc/client: the serving-layer SDK — Client over a pluggable
//     Transport (HTTP or in-process loopback), sequential Session
//     handles with asynchronous Invoke futures, client-side batching
//     that pipelines independent sessions into batch requests while
//     preserving each session's program order, per-request read
//     targets (ReadAffinity vs ReadAny, Pileus-style), and typed
//     object handles over the ADT registry (Counter, Register, Queue,
//     Stack, GSet, RWSet, CAS, generic Object).
//
// Cancellation is idiomatic context.Context end to end: every search
// polls ctx at a bounded node cadence and unwinds promptly on
// cancellation or deadline. The exported surface is pinned by the
// API-lock test (cc/testdata/api.golden).
//
// All cmd/ tools and all eight examples/ programs are built on
// the facade (the serving tools ccserved and ccload import only the
// public cc/... surface, enforced in CI); see README.md for the
// architecture, the benchmark
// workflow and the BENCH_checkers.json performance record. The
// benchmarks in bench_test.go and bench_extra_test.go regenerate the
// performance-shape results for every figure of the paper; cmd/ccbench
// snapshots the checker numbers into BENCH_checkers.json.
//
// Classification scales along two axes: WithPruning turns on the
// DPOR-style pruners of the layered exploration engine (canonical
// frame fingerprints, sleep sets, a symmetry quotient — verdicts are
// provably unchanged; the online monitor always runs pruned), and
// the Classifier streams batches of histories through a bounded worker
// pool with per-criterion timeouts — cmd/ccclassify is the batch front
// end emitting one JSON object per history. See README.md's "Checker
// internals" section and the internal/check package docs for the
// engine's layering.
package ccbm
