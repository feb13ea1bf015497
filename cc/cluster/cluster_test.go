package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/paper-repro/ccbm/cc"
	"github.com/paper-repro/ccbm/cc/cluster"
)

// TestClusterServeLoadMonitor is the in-process smoke of the whole
// serving stack: a sharded CCv cluster with an aggressive monitor, a
// closed-loop load of concurrent sessions over mixed ADTs, then clean
// shutdown with non-empty, non-violating monitor verdicts.
func TestClusterServeLoadMonitor(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		Shards:    2,
		Replicas:  3,
		Criterion: "CCv",
		BatchOps:  8,
		Monitor: cluster.MonitorConfig{
			SampleEvery: 1, // sample everything: this test is about the monitor
			WindowOps:   16,
			Grace:       50 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	adts := []string{"Counter", "Register", "GSet", "RWSet"}
	var objects []string
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("obj-%d", i)
		if err := c.CreateObject(name, adts[i%len(adts)]); err != nil {
			t.Fatal(err)
		}
		objects = append(objects, name)
	}
	var wg sync.WaitGroup
	for sess := 0; sess < 6; sess++ {
		wg.Add(1)
		go func(sess int) {
			defer wg.Done()
			s := c.Session(sess)
			rng := rand.New(rand.NewSource(int64(sess)))
			for i := 0; i < 80; i++ {
				idx := rng.Intn(len(objects))
				name, kind := objects[idx], adts[idx%len(adts)]
				var err error
				if rng.Float64() < 0.5 {
					_, err = s.Call(name, queryMethod[kind])
				} else {
					_, err = s.Call(name, updateMethod[kind], sess*1000+i)
				}
				if err != nil {
					t.Errorf("session %d: %v", sess, err)
					return
				}
			}
		}(sess)
	}
	wg.Wait()
	stats := c.Stats()
	if stats.Totals.Invocations == 0 || stats.Totals.Broadcasts == 0 {
		t.Fatalf("no traffic recorded: %+v", stats.Totals)
	}
	if len(stats.Shards) != 2 {
		t.Fatalf("want 2 shards, got %d", len(stats.Shards))
	}
	// Both shards must have seen objects (hash routing spreads 8 names).
	for i, sh := range stats.Shards {
		if sh.Stations[0].Objects == 0 {
			t.Errorf("shard %d hosts no objects", i)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	sum := c.Monitor().Summary()
	if sum.SampledObjects != 8 {
		t.Fatalf("sampled %d objects, want 8", sum.SampledObjects)
	}
	if sum.Verdicts == 0 {
		t.Fatal("monitor produced no verdicts")
	}
	for _, v := range sum.Violations {
		t.Errorf("monitor violation: %+v", v)
	}
	t.Logf("monitor: %d windows, %d verdicts, %d satisfied, %d exhausted",
		sum.WindowsSubmitted, sum.Verdicts, sum.Satisfied, sum.Exhausted)
}

var (
	updateMethod = map[string]string{"Counter": "inc", "Register": "w", "GSet": "add", "RWSet": "add"}
	queryMethod  = map[string]string{"Counter": "get", "Register": "r", "GSet": "elems", "RWSet": "elems"}
)

// TestSessionReadYourWrites pins the session contract on every
// criterion: a session's query observes its own completed updates.
func TestSessionReadYourWrites(t *testing.T) {
	for _, crit := range []string{"CC", "PC", "EC", "CCv"} {
		c, err := cluster.New(cluster.Config{
			Criterion: crit,
			Replicas:  3,
			BatchOps:  4,
			Monitor:   cluster.MonitorConfig{Disable: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.CreateObject("r", "Register"); err != nil {
			t.Fatal(err)
		}
		s := c.Session(1)
		for i := 1; i <= 20; i++ {
			if _, err := s.Call("r", "w", i); err != nil {
				t.Fatal(err)
			}
			out, err := s.Call("r", "r")
			if err != nil {
				t.Fatal(err)
			}
			if !out.Equal(cc.IntOutput(i)) {
				t.Fatalf("%s: read %v after writing %d", crit, out, i)
			}
		}
		c.Close()
	}
}

// TestClusterObjectErrors pins the error paths.
func TestClusterObjectErrors(t *testing.T) {
	c, err := cluster.New(cluster.Config{Monitor: cluster.MonitorConfig{Disable: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateObject("x", "NoSuchADT"); err == nil {
		t.Fatal("unknown ADT accepted")
	}
	if err := c.CreateObject("x", "Counter"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateObject("x", "Counter"); err != nil {
		t.Fatalf("idempotent create failed: %v", err)
	}
	if err := c.CreateObject("x", "Register"); err == nil {
		t.Fatal("conflicting re-create accepted")
	}
	if _, err := c.Session(0).Call("ghost", "r"); err == nil {
		t.Fatal("invoke on unknown object succeeded")
	}
	if got := c.Objects(); len(got) != 1 || got[0] != "x" {
		t.Fatalf("Objects() = %v", got)
	}
}

// TestClusterCrashUnderLoad crashes a replica mid-traffic: surviving
// sessions keep completing (wait-freedom), sessions pinned to the
// crashed replica keep completing locally, and shutdown stays clean.
func TestClusterCrashUnderLoad(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		Shards:    1,
		Replicas:  3,
		Criterion: "CC",
		BatchOps:  4,
		Monitor:   cluster.MonitorConfig{Disable: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateObject("o", "Counter"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for sess := 0; sess < 6; sess++ {
		wg.Add(1)
		go func(sess int) {
			defer wg.Done()
			s := c.Session(sess)
			for i := 0; i < 200; i++ {
				if _, err := s.Call("o", "inc", 1); err != nil {
					t.Errorf("session %d: %v", sess, err)
					return
				}
			}
		}(sess)
	}
	time.Sleep(2 * time.Millisecond)
	if err := c.CrashReplica(0, 1); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	st := c.Stats()
	if !st.Shards[0].Crashed[1] {
		t.Fatal("replica 1 not marked crashed")
	}
	if st.Totals.Invocations != 6*200 {
		t.Fatalf("lost invocations under crash: %d", st.Totals.Invocations)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.CrashReplica(0, 99); err == nil {
		t.Fatal("bad replica index accepted")
	}
}

// TestHTTPRoundTrip drives the HTTP front-end end to end against an
// httptest server: create, invoke, stats, monitor, crash, health.
func TestHTTPRoundTrip(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		Criterion: "CC",
		Replicas:  2,
		Monitor:   cluster.MonitorConfig{SampleEvery: 1, WindowOps: 4, Grace: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(cluster.NewHTTPHandler(c))
	defer srv.Close()
	defer c.Close()

	post := func(path string, body any) (int, map[string]any) {
		t.Helper()
		b, _ := json.Marshal(body)
		resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		json.NewDecoder(resp.Body).Decode(&m)
		return resp.StatusCode, m
	}
	get := func(path string) (int, map[string]any) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		json.NewDecoder(resp.Body).Decode(&m)
		return resp.StatusCode, m
	}

	if code, _ := get("/v1/healthz"); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
	if code, m := post("/v1/objects", map[string]string{"name": "k", "adt": "Counter"}); code != 200 {
		t.Fatalf("create = %d %v", code, m)
	}
	if code, m := post("/v1/objects", map[string]string{"name": "k", "adt": "Register"}); code != 409 {
		t.Fatalf("conflicting create = %d %v", code, m)
	}
	for i := 0; i < 6; i++ {
		code, m := post("/v1/invoke", map[string]any{"session": 1, "object": "k", "method": "inc", "args": []int{2}})
		if code != 200 {
			t.Fatalf("invoke = %d %v", code, m)
		}
	}
	code, m := post("/v1/invoke", map[string]any{"session": 1, "object": "k", "method": "get"})
	if code != 200 || m["output"] != "12" {
		t.Fatalf("get = %d %v", code, m)
	}
	if code, m := post("/v1/invoke", map[string]any{"session": 1, "object": "ghost", "method": "get"}); code != 404 {
		t.Fatalf("ghost invoke = %d %v", code, m)
	}
	if code, _ := get("/v1/stats"); code != 200 {
		t.Fatalf("stats = %d", code)
	}
	if code, m := post("/v1/crash", map[string]int{"shard": 0, "replica": 1}); code != 200 {
		t.Fatalf("crash = %d %v", code, m)
	}
	if code, m := post("/v1/crash", map[string]int{"shard": 9, "replica": 0}); code != 400 {
		t.Fatalf("bad crash = %d %v", code, m)
	}
	// The 4-op window filled; after the grace the verdict appears.
	deadline := time.After(10 * time.Second)
	for {
		_, m := get("/v1/monitor?verdicts=1")
		sum, _ := m["summary"].(map[string]any)
		if sum != nil && sum["verdicts"].(float64) > 0 {
			if sum["satisfied"].(float64) == 0 {
				t.Fatalf("no satisfied verdicts: %v", m)
			}
			break
		}
		select {
		case <-deadline:
			t.Fatalf("monitor never produced a verdict: %v", m)
		default:
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// TestCriterionCanonicalization pins that a lowercase criterion is
// canonicalized to the checker registry's spelling — an
// uncanonicalized "ccv" used to silently disable the monitor (the
// registry key is case-sensitive).
func TestCriterionCanonicalization(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		Criterion: "ccv",
		Monitor:   cluster.MonitorConfig{SampleEvery: 1, WindowOps: 4, Grace: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Criterion(); got != "CCv" {
		t.Fatalf("Criterion() = %q, want CCv", got)
	}
	if err := c.CreateObject("o", "Counter"); err != nil {
		t.Fatal(err)
	}
	s := c.Session(0)
	for i := 0; i < 6; i++ {
		if _, err := s.Call("o", "inc", 1); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	sum := c.Monitor().Summary()
	if sum.SampledObjects != 1 || sum.Verdicts == 0 {
		t.Fatalf("monitor disabled by lowercase criterion: %+v", sum)
	}
	for _, v := range c.Monitor().Verdicts() {
		if v.Criterion != "CCv" {
			t.Fatalf("verdict criterion = %q", v.Criterion)
		}
	}
	if _, err := cluster.New(cluster.Config{Criterion: "bogus"}); err == nil {
		t.Fatal("bogus criterion accepted")
	}
}

// TestMonitorSampling pins SampleEvery.
func TestMonitorSampling(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		Monitor: cluster.MonitorConfig{SampleEvery: 3, WindowOps: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if err := c.CreateObject(fmt.Sprintf("o%d", i), "Counter"); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	if got := c.Monitor().Summary().SampledObjects; got != 3 {
		t.Fatalf("sampled %d, want 3", got)
	}
}
