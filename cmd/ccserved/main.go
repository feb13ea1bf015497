// Command ccserved serves a live, sharded multi-object replicated
// store (cc/cluster) over HTTP, continuously self-checking the
// consistency criterion it claims via the online monitor.
//
// Usage:
//
//	ccserved -addr :8344 -criterion CCv -shards 4 -replicas 3 \
//	         -batch-ops 32 -batch-wait 200us \
//	         -monitor-sample 4 -window-ops 40 -monitor-budget 20000000
//
// The server speaks the versioned cc/cluster/wire protocol (see
// cluster.NewHTTPHandler): POST /v1/objects, POST /v1/invoke, POST
// /v1/batch (per-session invocation groups), GET /v1/stream (the op
// stream the Go client sends invocations and batches on), POST
// /v1/crash, POST /v1/fault (scripted chaos: partition, heal,
// crash/restart, link degradation, per-replica serving delay),
// GET /v1/ring (placement ring, epoch, per-replica replication lag),
// GET /v1/stats, GET /v1/monitor,
// GET /v1/monitor/stream (NDJSON verdicts), GET /v1/staleness
// (per-replica high-water vectors and lag — what SLA-routing clients
// poll), GET /v1/healthz (reports the protocol version and topology),
// GET /v1/readyz (503 while draining, also reports replication lag).
// Drive it with the cc/client SDK or cmd/ccload.
// -replication selects the backend: "broadcast" (the default causal
// broadcast stack) or "antientropy" (periodic gossip rounds,
// -gossip-interval). On SIGINT/SIGTERM the server flips /v1/readyz
// to 503 and keeps serving for -drain-wait, then shuts down, closes
// the cluster (flushing batches and finalizing sampled windows) and
// prints the monitor summary; a monitor violation makes the exit
// status non-zero so harnesses notice.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/paper-repro/ccbm/cc/cluster"
	"github.com/paper-repro/ccbm/cc/cluster/wire"
)

func main() {
	addr := flag.String("addr", ":8344", "listen address")
	criterion := flag.String("criterion", "CC", "consistency criterion: CC, PC, EC, CCv")
	shards := flag.Int("shards", 4, "number of replica groups objects are hashed across")
	replicas := flag.Int("replicas", 3, "replicas per shard")
	batchOps := flag.Int("batch-ops", 32, "max updates per broadcast batch (1 disables batching)")
	batchWait := flag.Duration("batch-wait", 200*time.Microsecond, "max time an update waits for its batch")
	monSample := flag.Int("monitor-sample", 4, "monitor samples 1 in N objects (0 disables the monitor)")
	monWindow := flag.Int("window-ops", cluster.DefaultWindowOps, "operations per sampled monitor window")
	monBudget := flag.Int("monitor-budget", 0, "search-node bound per online check (0 = checker default)")
	monSessions := flag.Int("monitor-sessions", 0, "max distinct sessions admitted per monitor window (0 = default 3, -1 = uncapped)")
	compactEvery := flag.Duration("compact-every", 5*time.Second, "CCv log compaction interval (0 disables)")
	replication := flag.String("replication", "broadcast", "replication backend: broadcast or antientropy (gossip)")
	gossipInterval := flag.Duration("gossip-interval", 0, "anti-entropy round interval (0 = backend default)")
	resync := flag.Bool("resync", false, "retain delivered broadcasts so healed partitions repair (broadcast backend)")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per shard on the placement ring (0 = default)")
	loadFactor := flag.Float64("load-factor", 0, "bounded-load factor for ring placement (0 = default)")
	drainWait := flag.Duration("drain-wait", 2*time.Second, "readiness drain window before shutdown (readyz answers 503)")
	flag.Parse()

	cfg := cluster.Config{
		Shards:         *shards,
		Replicas:       *replicas,
		Criterion:      *criterion,
		BatchOps:       *batchOps,
		BatchWait:      *batchWait,
		Replication:    *replication,
		GossipInterval: *gossipInterval,
		Resync:         *resync,
		VirtualNodes:   *vnodes,
		LoadFactor:     *loadFactor,
		Monitor: cluster.MonitorConfig{
			Disable:           *monSample <= 0,
			SampleEvery:       *monSample,
			WindowOps:         *monWindow,
			Budget:            *monBudget,
			MaxWindowSessions: *monSessions,
		},
	}
	c, err := cluster.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccserved:", err)
		os.Exit(2)
	}

	srv := &http.Server{Addr: *addr, Handler: cluster.NewHTTPHandler(c)}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	var stopCompact chan struct{}
	if *compactEvery > 0 {
		stopCompact = make(chan struct{})
		go func() {
			tick := time.NewTicker(*compactEvery)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					c.Compact()
				case <-stopCompact:
					return
				}
			}
		}()
	}

	ringInfo := c.RingWire()
	fmt.Printf("ccserved: criterion=%s shards=%d replicas=%d batch=%d repl=%s addr=%s protocol=v%d ring(epoch=%d vnodes=%d load=%.2f)\n",
		c.Criterion(), *shards, *replicas, *batchOps, c.Replication(), *addr, wire.ProtocolVersion,
		ringInfo.Epoch, ringInfo.VNodes, ringInfo.LoadFactor)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("ccserved: %v, draining\n", s)
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "ccserved:", err)
		os.Exit(1)
	}

	// Flip readiness first and keep serving through the drain window,
	// so load balancers watching /v1/readyz stop routing new work
	// (503) while /v1/healthz stays 200 and in-flight requests finish.
	c.StartDrain()
	if *drainWait > 0 {
		time.Sleep(*drainWait)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	if stopCompact != nil {
		close(stopCompact)
	}
	c.Close()

	sum := c.Monitor().Summary()
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	fmt.Println("ccserved: final stats")
	enc.Encode(c.Stats().Totals)
	fmt.Println("ccserved: monitor summary")
	enc.Encode(sum)
	if len(sum.Violations) > 0 {
		fmt.Fprintf(os.Stderr, "ccserved: %d monitor violations\n", len(sum.Violations))
		os.Exit(1)
	}
}
