package client_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/paper-repro/ccbm/cc/client"
	"github.com/paper-repro/ccbm/cc/cluster"
	"github.com/paper-repro/ccbm/cc/cluster/wire"
	"github.com/paper-repro/ccbm/cc/sla"
)

func testSLA(t *testing.T) sla.SLA {
	t.Helper()
	s, err := sla.Parse("rmw@5ms=1,bounded:100ms@2ms=0.5,eventual=0.1")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// newSkewedCluster builds the acceptance topology: one shard, three
// replicas, the session's home replica slow (20ms serving delay) and
// replica 0 fast.
func newSkewedCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		Shards: 1, Replicas: 3, Criterion: "CCv", BatchOps: 1,
		Monitor: cluster.MonitorConfig{Disable: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.CreateObject("cnt", "Counter"); err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{1, 2} {
		if err := c.SetReplicaDelay(r, 20*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// runSLAPhase drives one client phase against the cluster: a couple of
// writes, then reads, returning the client's SLA metrics.
func runSLAPhase(t *testing.T, c *cluster.Cluster, router sla.Router, reads int, opts ...client.Option) client.SLAMetrics {
	t.Helper()
	cli, err := client.New(client.NewLoopback(c), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()
	if err := cli.CreateObject(ctx, "cnt", "Counter"); err != nil {
		t.Fatal(err)
	}
	s := cli.Session(1).WithSLA(testSLA(t)) // home replica 1: slow
	if router != nil {
		s = s.WithSLARouter(router)
	}
	if _, err := s.Call(ctx, "cnt", "inc", 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < reads; i++ {
		if _, err := s.Call(ctx, "cnt", "get"); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	return cli.Metrics().SLA
}

// TestSLAAdaptiveRoutingLoopback is the subsystem's acceptance check
// in miniature: on a skewed topology (fast replica 0, slow affinity),
// the adaptive router steers the overwhelming majority of reads to the
// fast replica while the replicas stay fresh, and beats both static
// baselines on mean delivered utility.
func TestSLAAdaptiveRoutingLoopback(t *testing.T) {
	for _, batched := range []bool{false, true} {
		t.Run(fmt.Sprintf("batched=%v", batched), func(t *testing.T) {
			c := newSkewedCluster(t)
			var opts []client.Option
			if batched {
				opts = append(opts, client.WithBatching(8, 200*time.Microsecond))
			}
			const reads = 30
			adaptive := runSLAPhase(t, c, nil, reads, opts...)
			if adaptive.Reads != reads {
				t.Fatalf("SLA reads = %d, want %d", adaptive.Reads, reads)
			}
			if got := adaptive.ByReplica[0]; got < reads*8/10 {
				t.Errorf("fast replica served %d/%d SLA reads, want >= 80%%: %+v",
					got, reads, adaptive.ByReplica)
			}
			affinity := runSLAPhase(t, c, sla.StaticAffinity{}, reads, opts...)
			anyRep := runSLAPhase(t, c, sla.StaticAny{}, reads, opts...)
			if adaptive.MeanUtility <= affinity.MeanUtility {
				t.Errorf("adaptive utility %v <= static-affinity %v",
					adaptive.MeanUtility, affinity.MeanUtility)
			}
			if adaptive.MeanUtility <= anyRep.MeanUtility {
				t.Errorf("adaptive utility %v <= static-any %v",
					adaptive.MeanUtility, anyRep.MeanUtility)
			}
		})
	}
}

// TestSLADowngradeRecordsMisses pins the delivered-verdict accounting:
// when the fast replica is partitioned away and falls behind the
// staleness bound, reads that still promised bounded consistency are
// recorded as misses, and the tracker's staleness estimate for the
// partitioned replica grows past the bound so the router stops
// choosing it.
func TestSLADowngradeRecordsMisses(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		Shards: 1, Replicas: 3, Criterion: "CCv", BatchOps: 1,
		Replication: "antientropy", GossipInterval: 2 * time.Millisecond,
		Monitor: cluster.MonitorConfig{Disable: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.CreateObject("cnt", "Counter"); err != nil {
		t.Fatal(err)
	}
	// Slow affinity, fast replica 0 — the router wants replica 0.
	for _, r := range []int{1, 2} {
		if err := c.SetReplicaDelay(r, 20*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	cli, err := client.New(client.NewLoopback(c))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()
	if err := cli.CreateObject(ctx, "cnt", "Counter"); err != nil {
		t.Fatal(err)
	}
	slaSpec, err := sla.Parse("rmw@5ms=1,bounded:30ms@2ms=0.5,eventual=0.1")
	if err != nil {
		t.Fatal(err)
	}
	s := cli.Session(1).WithSLA(slaSpec)
	// Teach the tracker the topology: writes land at the slow affinity,
	// a few reads migrate to the fast replica 0.
	if _, err := s.Call(ctx, "cnt", "inc", 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Call(ctx, "cnt", "get"); err != nil {
			t.Fatal(err)
		}
	}
	// Cut replica 0 off and keep writing: its high-water vector
	// freezes while the session's known-freshest view advances.
	if err := c.PartitionReplicas(0, [][]int{{1, 2}, {0}}); err != nil {
		t.Fatal(err)
	}
	// Keep writing and reading until a miss is recorded and the tracker
	// prices replica 0 beyond the bound: how many rounds that takes is
	// the scheduler's business, the deadline only bounds a real failure.
	var m client.SLAMetrics
	var c0 sla.Condition
	deadline := time.Now().Add(2 * time.Second)
	for (m.Misses < 1 || c0.Staleness <= 30*time.Millisecond) && time.Now().Before(deadline) {
		if _, err := s.Call(ctx, "cnt", "inc", 1); err != nil {
			t.Fatal(err)
		}
		time.Sleep(15 * time.Millisecond)
		if _, err := s.Call(ctx, "cnt", "get"); err != nil {
			t.Fatal(err)
		}
		m = cli.Metrics().SLA
		for _, cd := range m.Conditions {
			if cd.Replica == 0 {
				c0 = cd
			}
		}
	}
	if m.Misses < 1 {
		t.Errorf("no downgrade verdicts recorded under partition: %+v", m)
	}
	if !c0.StalenessKnown || c0.Staleness <= 30*time.Millisecond {
		t.Errorf("partitioned replica staleness = %+v, want > 30ms", c0)
	}
}

// TestWeakReadsPreserveRYWAcrossFailover interleaves weak reads with
// a crash-driven failover re-attachment: the weak reads (ReadAny and
// SLA bounded) must not corrupt the session's accumulated frontier —
// the next affinity read after the move still observes the session's
// own writes.
func TestWeakReadsPreserveRYWAcrossFailover(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		Criterion: "CC",
		Replicas:  3,
		Resync:    true,
		Monitor:   cluster.MonitorConfig{Disable: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cli, err := client.New(client.NewLoopback(c),
		client.WithRetry(6, time.Millisecond, 20*time.Millisecond),
		client.WithFailover())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()
	if err := cli.CreateObject(ctx, "reg", "Register"); err != nil {
		t.Fatal(err)
	}
	s := cli.Session(1) // home replica 1
	weak := s.WithTarget(wire.ReadAny)
	slaSess := s.WithSLA(testSLA(t))
	if _, err := s.Call(ctx, "reg", "w", 7); err != nil {
		t.Fatal(err)
	}
	// Weak reads before the crash: routed anywhere, no session pin.
	if _, err := weak.Call(ctx, "reg", "r"); err != nil {
		t.Fatal(err)
	}
	if _, err := slaSess.Call(ctx, "reg", "r"); err != nil {
		t.Fatal(err)
	}
	if err := c.StopReplica(cluster.AllShards, 1); err != nil {
		t.Fatal(err)
	}
	// The write rides failover to a live replica; weak reads in the
	// middle of the re-attachment must not regress the frontier.
	if _, err := s.Call(ctx, "reg", "w", 8); err != nil {
		t.Fatalf("write during crash failed: %v", err)
	}
	if _, err := weak.Call(ctx, "reg", "r"); err != nil {
		t.Fatal(err)
	}
	if _, err := slaSess.Call(ctx, "reg", "r"); err != nil {
		t.Fatal(err)
	}
	out, err := s.Call(ctx, "reg", "r")
	if err != nil {
		t.Fatalf("affinity read during crash failed: %v", err)
	}
	if len(out.Vals) != 1 || out.Vals[0] != 8 {
		t.Fatalf("read-your-writes after weak reads + failover: got %+v, want [8]", out)
	}
	if m := cli.Metrics(); m.Failovers < 1 {
		t.Fatalf("Failovers = %d, want >= 1", m.Failovers)
	}
}

// TestWeakReadsPreserveRYWAcrossRingRefresh scripts a stale-ring
// redirect in the middle of a pinned session's weak reads: the retry
// refreshes the ring, and the next affinity read still re-attaches the
// session's accumulated causal frontier (nothing about the refresh may
// drop it).
func TestWeakReadsPreserveRYWAcrossRingRefresh(t *testing.T) {
	var lastFrontiers []wire.ShardFrontier
	ft := &fakeTransport{replicas: 3}
	ft.steps = []func(*wire.InvokeRequest) (*wire.InvokeResponse, error){
		// Update succeeds on the default replica, echoing a frontier.
		func(*wire.InvokeRequest) (*wire.InvokeResponse, error) {
			return &wire.InvokeResponse{Output: "ok", Frontier: &wire.ShardFrontier{Shard: 0, VC: []int{0, 3, 0}}}, nil
		},
		// Next op fails: the session's replica crashed → failover pin.
		unavailable,
		// Retried on the rotated replica.
		func(*wire.InvokeRequest) (*wire.InvokeResponse, error) {
			return &wire.InvokeResponse{Output: "ok", Frontier: &wire.ShardFrontier{Shard: 0, VC: []int{0, 3, 1}}}, nil
		},
		// A weak read bounces off a topology change...
		func(*wire.InvokeRequest) (*wire.InvokeResponse, error) {
			return nil, wire.Errf(wire.CodeStaleRing, "fake: ring moved")
		},
		// ...and succeeds after the refresh.
		func(req *wire.InvokeRequest) (*wire.InvokeResponse, error) {
			if req.Target != wire.ReadAny {
				return nil, fmt.Errorf("weak read retried with target %q, want any", req.Target)
			}
			return &wire.InvokeResponse{Output: "ok"}, nil
		},
		// The affinity read after all of it must still carry the
		// accumulated frontier for its pinned replica.
		func(req *wire.InvokeRequest) (*wire.InvokeResponse, error) {
			lastFrontiers = append([]wire.ShardFrontier(nil), req.Frontiers...)
			return &wire.InvokeResponse{Output: "ok"}, nil
		},
	}
	cli, err := client.New(ft,
		client.WithRetry(4, time.Millisecond, 2*time.Millisecond),
		client.WithFailover())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()
	s := cli.Session(1)
	if _, err := s.Call(ctx, "o", "w", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Call(ctx, "o", "w", 4); err != nil {
		t.Fatalf("failover write failed: %v", err)
	}
	if _, err := s.WithTarget(wire.ReadAny).Call(ctx, "o", "r"); err != nil {
		t.Fatalf("weak read across stale ring failed: %v", err)
	}
	if _, err := s.Call(ctx, "o", "r"); err != nil {
		t.Fatal(err)
	}
	ft.mu.Lock()
	rings := ft.ringCalls
	ft.mu.Unlock()
	if rings < 1 {
		t.Errorf("stale-ring redirect did not refresh the ring")
	}
	if len(lastFrontiers) != 1 || lastFrontiers[0].Shard != 0 {
		t.Fatalf("affinity read carried frontiers %+v, want the shard-0 frontier", lastFrontiers)
	}
	if vc := lastFrontiers[0].VC; len(vc) != 3 || vc[1] != 3 || vc[2] != 1 {
		t.Fatalf("re-attached VC = %v, want [0 3 1]", vc)
	}
}

// TestSLARejectsInvalid pins option validation: a malformed SLA fails
// client construction instead of failing reads later.
func TestSLARejectsInvalid(t *testing.T) {
	_, err := client.New(&fakeTransport{}, client.WithSLA(sla.SLA{{Consistency: "strong", Utility: 1}}))
	if err == nil {
		t.Fatal("invalid SLA accepted")
	}
}
