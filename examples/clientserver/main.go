// Clientserver: the cc/client SDK end to end — an in-process CCv
// cluster behind its HTTP front-end, driven through the versioned
// wire protocol with typed object handles, pipelined batching, and a
// per-request read target, then spot-checked by the online monitor.
// Swap the httptest server for a real ccserved address and nothing
// else changes.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"github.com/paper-repro/ccbm/cc/client"
	"github.com/paper-repro/ccbm/cc/cluster"
	"github.com/paper-repro/ccbm/cc/cluster/wire"
)

func main() {
	// A sharded CCv cluster with an eager monitor, served over HTTP.
	c, err := cluster.New(cluster.Config{
		Shards:    2,
		Replicas:  3,
		Criterion: "CCv",
		Monitor:   cluster.MonitorConfig{SampleEvery: 1, WindowOps: 8, Grace: 50 * time.Millisecond},
	})
	if err != nil {
		log.Fatal(err)
	}
	srv := httptest.NewServer(cluster.NewHTTPHandler(c))
	defer srv.Close()

	// The SDK: batching coalesces async invocations from all sessions
	// into pipelined batch requests on the op stream.
	cli, err := client.New(client.NewHTTPTransport(srv.URL),
		client.WithBatching(32, 500*time.Microsecond))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	h, err := cli.Health(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server: criterion=%s protocol=v%d\n", h.Criterion, h.Protocol)

	// Typed handles from the ADT registry. Session 1 pipelines five
	// increments (futures) and then reads its own writes.
	sess := cli.Session(1)
	cart, err := sess.Counter(ctx, "cart:42")
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		cart.IncAsync(2) // one wire round trip for all five, order preserved
	}
	n, err := cart.Get(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cart after 5 async inc(2): %d (read-your-writes)\n", n)

	// A queue through the same session, synchronous this time.
	jobs, err := sess.Queue(ctx, "jobs")
	if err != nil {
		log.Fatal(err)
	}
	jobs.Push(ctx, 7)
	jobs.Push(ctx, 9)
	if v, ok, _ := jobs.Pop(ctx); ok {
		fmt.Printf("first job: %d\n", v)
	}

	// Per-request consistency target (Pileus-style): a ReadAny read
	// round-robins over the shard's replicas — it may be stale and
	// waives read-your-writes, which is the price of load spread.
	weak := sess.WithTarget(wire.ReadAny)
	out, err := weak.Call(ctx, "cart:42", "get")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ReadAny get: %s (stale is allowed)\n", out.String())

	// Drain the client, stop the cluster, and ask the online monitor
	// how the recorded fragments checked out against CCv.
	cli.Close()
	c.Close()
	sum := c.Monitor().Summary()
	fmt.Printf("monitor: %d verdicts, %d satisfied, %d violations\n",
		sum.Verdicts, sum.Satisfied, len(sum.Violations))
}
