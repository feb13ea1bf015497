package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/paper-repro/ccbm/cc/cluster"
	"github.com/paper-repro/ccbm/cc/cluster/wire"
)

// TestStopReplicaUnavailableWire pins the wire contract for a crashed
// replica: a session routed to it gets CodeUnavailable (HTTP 503,
// retryable) — never CodeInternal (500, not retryable) — and the
// replica serves again after a restart.
func TestStopReplicaUnavailableWire(t *testing.T) {
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
	if err := c.CreateObject("ctr", "Counter"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(cluster.NewHTTPHandler(c))
	defer srv.Close()

	invoke := func(sess int) (int, *wire.Error) {
		body, _ := json.Marshal(&wire.InvokeRequest{Session: sess, Object: "ctr", Method: "inc", Args: []int{1}})
		resp, err := http.Post(srv.URL+"/v1/invoke", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return resp.StatusCode, nil
		}
		var er wire.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatalf("non-2xx body is not an ErrorResponse: %v", err)
		}
		return resp.StatusCode, er.Err
	}

	// Session 1 routes to replica 1 (session id mod replica count).
	if status, werr := invoke(1); status != http.StatusOK {
		t.Fatalf("healthy invoke: status %d, err %v", status, werr)
	}
	if err := c.StopReplica(cluster.AllShards, 1); err != nil {
		t.Fatal(err)
	}
	status, werr := invoke(1)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("crashed-replica invoke: status %d (err %v), want 503", status, werr)
	}
	if werr == nil || werr.Code != wire.CodeUnavailable {
		t.Fatalf("crashed-replica invoke: code %v, want %v", werr, wire.CodeUnavailable)
	}
	// Sessions on live replicas are untouched.
	if status, werr := invoke(0); status != http.StatusOK {
		t.Fatalf("live-replica invoke during crash: status %d, err %v", status, werr)
	}
	if err := c.RestartReplica(cluster.AllShards, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.AwaitConvergence(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if status, werr := invoke(1); status != http.StatusOK {
		t.Fatalf("restarted-replica invoke: status %d, err %v", status, werr)
	}
}

// TestConvergenceAfterPartitionProperty is the anti-entropy
// acceptance property, run against both backends and across the
// criteria families (delivery-order CC vs arbitrated EC/CCv): random
// mixed-ADT updates land on both sides of a partition, the heal's
// repair path runs, and every replica reaches an identical
// fingerprint. The EC run also demands satisfied monitor verdicts —
// the paper's eventual-consistency witness over the live execution.
func TestConvergenceAfterPartitionProperty(t *testing.T) {
	adts := []string{"Counter", "Register", "GSet", "RWSet"}
	for _, tc := range []struct {
		criterion, replication string
	}{
		{"CC", "antientropy"},
		{"CC", "broadcast"},
		{"EC", "antientropy"},
		{"EC", "broadcast"},
		{"CCv", "antientropy"},
		{"CCv", "broadcast"},
	} {
		t.Run(tc.criterion+"/"+tc.replication, func(t *testing.T) {
			c, err := cluster.New(cluster.Config{
				Criterion:      tc.criterion,
				Replicas:       3,
				Replication:    tc.replication,
				GossipInterval: 2 * time.Millisecond,
				Resync:         true,
				Monitor: cluster.MonitorConfig{
					SampleEvery: 1,
					WindowOps:   8,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, adt := range adts {
				if err := c.CreateObject(fmt.Sprintf("o%d", i), adt); err != nil {
					t.Fatal(err)
				}
			}
			// Replica 0 on one side, 1 and 2 on the other; sessions keep
			// writing to their home replicas on both sides (wait-free).
			if err := c.PartitionReplicas(cluster.AllShards, [][]int{{0}, {1, 2}}); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < 120; i++ {
				sess := rng.Intn(6)
				oi := rng.Intn(len(adts))
				name, kind := fmt.Sprintf("o%d", oi), adts[oi]
				var err error
				if rng.Float64() < 0.6 {
					_, err = c.Session(sess).Call(name, updateMethod[kind], sess*1000+i)
				} else {
					_, err = c.Session(sess).Call(name, queryMethod[kind])
				}
				if err != nil {
					t.Fatalf("op %d (session %d, %s): %v", i, sess, name, err)
				}
			}
			repaired, err := c.Heal(cluster.AllShards)
			if err != nil {
				t.Fatal(err)
			}
			if !repaired {
				t.Fatal("Heal repaired nothing: partition was not in force")
			}
			if err := c.AwaitConvergence(10 * time.Second); err != nil {
				t.Fatalf("%v (fingerprints %v)", err, c.Fingerprints())
			}
			for si, fps := range c.Fingerprints() {
				for r := 1; r < len(fps); r++ {
					if fps[r] != fps[0] {
						t.Fatalf("shard %d replica %d fingerprint %x != replica 0's %x", si, r, fps[r], fps[0])
					}
				}
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			sum := c.Monitor().Summary()
			for _, v := range sum.Violations {
				t.Errorf("monitor violation: %+v", v)
			}
			if tc.criterion == "EC" && sum.Satisfied == 0 {
				t.Fatalf("EC run produced no satisfied verdicts: %+v", sum)
			}
		})
	}
}

// TestMonitorStreamDropped pins the subscriber-overflow accounting: a
// subscriber that never drains its channel loses verdicts past the
// buffer, and the monitor counts every silent drop instead of
// blocking the checker pipeline. A sampled object yields exactly one
// window, so overflowing the ~256-verdict buffer takes many objects.
func TestMonitorStreamDropped(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		Criterion: "EC",
		Replicas:  2,
		Monitor: cluster.MonitorConfig{
			SampleEvery: 1,
			WindowOps:   2,
			Grace:       time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, cancel := c.Monitor().Subscribe() // never drained
	defer cancel()
	s := c.Session(0)
	const objects = 400
	for i := 0; i < objects; i++ {
		name := fmt.Sprintf("ctr-%d", i)
		if err := c.CreateObject(name, "Counter"); err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 2; op++ {
			if _, err := s.Call(name, "inc", 1); err != nil {
				t.Fatal(err)
			}
		}
		// Pace on the monitor, not on the flush wait: the next object's
		// window goes in only once this one is submitted and checked,
		// so the window queue never overflows and every verdict reaches
		// the (full) subscriber channel.
		deadline := time.Now().Add(10 * time.Second)
		for sum := c.Monitor().Summary(); sum.WindowsSubmitted <= i || sum.Verdicts != sum.WindowsSubmitted; sum = c.Monitor().Summary() {
			if time.Now().After(deadline) {
				t.Fatalf("object %d: %d windows submitted, %d verdicts", i, sum.WindowsSubmitted, sum.Verdicts)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	if sum := c.Monitor().Summary(); sum.WindowsDropped != 0 {
		t.Fatalf("%d windows dropped with the monitor paced", sum.WindowsDropped)
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.Monitor().Summary().StreamDropped == 0 {
		if time.Now().After(deadline) {
			sum := c.Monitor().Summary()
			t.Fatalf("no stream drops after %d verdicts (%d windows submitted, %d dropped)",
				sum.Verdicts, sum.WindowsSubmitted, sum.WindowsDropped)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
