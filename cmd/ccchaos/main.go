// Command ccchaos is the partition/churn chaos harness: it runs an
// in-process cluster (loopback transport, so the run is deterministic
// in shape and free of socket noise), drives a cc/bench scenario
// (-scenario, default mixed) through self-healing cc/client sessions,
// injects a scripted fault schedule — partitions, crash-stops,
// restarts, link degradation — and asserts the paper's promises hold
// through it:
//
//   - after every heal/restart, all live replicas of every shard
//     converge to identical state fingerprints (EC's convergence,
//     checked quiescently with traffic paused);
//   - the online monitor reports no violated CC/CCv windows in the
//     causal modes;
//   - with retry+failover on, no client operation fails and no future
//     hangs — crash-stops surface as typed unavailable errors that
//     the SDK heals around, never as stuck calls.
//
// Usage:
//
//	ccchaos -criterion CC -replication antientropy -shards 2 -replicas 3 \
//	        [-schedule "300ms partition 0 1,2; 900ms heal; ..."] \
//	        [-schedule-file chaos.sched] [-storm] [-batch] [-window-ops 24] \
//	        [-bench-out BENCH_runtime.json -label "..."] [-require-verdicts]
//
// The built-in schedule runs two partition/heal rounds and two
// crash/restart rounds (see schedule.go for the DSL). -storm swaps in
// the rebalance storm instead: repeated addshard/drainshard topology
// changes with traffic flowing, asserting convergence and causal
// session guarantees across every live migration. The harness exits
// non-zero on any failed assertion and, with -bench-out, appends a
// labelled entry recording steady-state vs under-fault (and, under
// -storm, under-migration) throughput and latency for the chosen
// replication backend.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/paper-repro/ccbm/cc/bench"
	"github.com/paper-repro/ccbm/cc/client"
	"github.com/paper-repro/ccbm/cc/cluster"
	"github.com/paper-repro/ccbm/cc/cluster/wire"
	"github.com/paper-repro/ccbm/internal/benchrec"
)

// phaseStats accumulates one phase's throughput and latency (every
// op, in the shared log-bucketed histogram).
type phaseStats struct {
	ops, errs int64
	lat       *bench.Histogram
}

// tracker splits the run's wall clock and per-op outcomes into the
// steady, under-fault, and under-migration phases; convergence pauses
// are excluded from all three (traffic is stopped, throughput there
// would measure nothing). Migration outranks fault when both apply —
// the elastic phase is the one the storm run wants isolated.
type tracker struct {
	mu                           sync.Mutex
	steady, fault, migr          phaseStats
	steadyDur, faultDur, migrDur time.Duration
	inFault, inMigr, paused      bool
	since                        time.Time
}

func newTracker() *tracker {
	t := &tracker{}
	t.steady.lat = bench.NewHistogram()
	t.fault.lat = bench.NewHistogram()
	t.migr.lat = bench.NewHistogram()
	return t
}

func (t *tracker) accumLocked(now time.Time) {
	if t.paused {
		return
	}
	d := now.Sub(t.since)
	switch {
	case t.inMigr:
		t.migrDur += d
	case t.inFault:
		t.faultDur += d
	default:
		t.steadyDur += d
	}
	t.since = now
}

func (t *tracker) start(now time.Time) { t.since = now }

func (t *tracker) setFault(f bool) {
	t.mu.Lock()
	t.accumLocked(time.Now())
	t.inFault = f
	t.mu.Unlock()
}

func (t *tracker) setMigration(m bool) {
	t.mu.Lock()
	t.accumLocked(time.Now())
	t.inMigr = m
	t.mu.Unlock()
}

func (t *tracker) pause() {
	t.mu.Lock()
	t.accumLocked(time.Now())
	t.paused = true
	t.mu.Unlock()
}

func (t *tracker) resume(fault bool) {
	t.mu.Lock()
	t.paused = false
	t.inFault = fault
	t.inMigr = false
	t.since = time.Now()
	t.mu.Unlock()
}

func (t *tracker) stop() { t.pause() }

func (t *tracker) record(migrating, fault, errored bool, d time.Duration) {
	t.mu.Lock()
	ph := &t.steady
	switch {
	case migrating:
		ph = &t.migr
	case fault:
		ph = &t.fault
	}
	if errored {
		ph.errs++
	} else {
		ph.ops++
		ph.lat.RecordDuration(d)
	}
	t.mu.Unlock()
}

// awaitVerdicts polls the monitor summary until every window that
// entered the classifier's queue has its verdict, so the run is judged
// on all of them. Dropped windows never enter the queue and are not
// counted in WindowsSubmitted. The last summary is returned with an
// error if verdicts are still missing at the timeout.
func awaitVerdicts(summary func() cluster.Summary, timeout time.Duration) (cluster.Summary, error) {
	deadline := time.Now().Add(timeout)
	for {
		sum := summary()
		if sum.Verdicts >= sum.WindowsSubmitted {
			return sum, nil
		}
		if !time.Now().Before(deadline) {
			return sum, fmt.Errorf("monitor: %d of %d submitted windows have verdicts after %v",
				sum.Verdicts, sum.WindowsSubmitted, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// healResult records one repair event's convergence assertion.
type healResult struct {
	event string
	took  time.Duration
	err   error
}

func main() {
	criterion := flag.String("criterion", "CC", "consistency criterion: CC, CCv, PC, EC")
	shards := flag.Int("shards", 2, "shards (replica groups)")
	replicas := flag.Int("replicas", 3, "replicas per shard")
	replication := flag.String("replication", "broadcast", "replication backend: broadcast or antientropy")
	gossip := flag.Duration("gossip-interval", 5*time.Millisecond, "anti-entropy round interval")
	clients := flag.Int("clients", 6, "concurrent closed-loop clients (one session each)")
	objects := flag.Int("objects", 12, "base object population of the scenario")
	scenario := flag.String("scenario", "mixed", "named cc/bench workload scenario that draws every op")
	seed := flag.Int64("seed", 1, "random seed")
	scheduleFlag := flag.String("schedule", "", "inline fault schedule (';'-separated events; empty = built-in)")
	scheduleFile := flag.String("schedule-file", "", "fault schedule file (one event per line)")
	storm := flag.Bool("storm", false, "run the built-in rebalance storm (addshard/drainshard under load) instead of the fault schedule")
	tail := flag.Duration("tail", 400*time.Millisecond, "steady traffic after the last event")
	convergeTimeout := flag.Duration("converge-timeout", 10*time.Second, "bound per post-heal convergence wait")
	opTimeout := flag.Duration("op-timeout", 5*time.Second, "per-op wait before its future counts as hung")
	retries := flag.Int("retries", 6, "client retry attempts (self-healing)")
	noHeal := flag.Bool("no-selfheal", false, "disable client retry/failover/breaker (op errors under faults become tolerated)")
	batch := flag.Bool("batch", false, "drive ops through the client-side batcher")
	requireVerdicts := flag.Bool("require-verdicts", false, "exit non-zero unless the monitor produced verdicts")
	monWindow := flag.Int("window-ops", 16, "operations per sampled monitor window")
	benchOut := flag.String("bench-out", "", "append a labelled result entry to this JSON file")
	label := flag.String("label", "", "label for the bench entry")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "ccchaos:", err)
		os.Exit(2)
	}
	text := defaultSchedule
	if *storm {
		text = stormSchedule
	}
	switch {
	case *scheduleFlag != "" && *scheduleFile != "":
		fail(fmt.Errorf("-schedule and -schedule-file are mutually exclusive"))
	case *storm && (*scheduleFlag != "" || *scheduleFile != ""):
		fail(fmt.Errorf("-storm and -schedule/-schedule-file are mutually exclusive"))
	case *scheduleFlag != "":
		text = *scheduleFlag
	case *scheduleFile != "":
		data, err := os.ReadFile(*scheduleFile)
		if err != nil {
			fail(err)
		}
		text = string(data)
	}
	sched, err := parseSchedule(text)
	if err != nil {
		fail(err)
	}
	var hasFaults, hasTopology bool
	for i := range sched {
		hasFaults = hasFaults || sched[i].faulty()
		hasTopology = hasTopology || sched[i].topology()
	}

	c, err := cluster.New(cluster.Config{
		Shards: *shards, Replicas: *replicas, Criterion: *criterion,
		Replication: *replication, GossipInterval: *gossip,
		Resync:  true, // chaos without a repair path cannot converge
		Monitor: cluster.MonitorConfig{SampleEvery: 2, WindowOps: *monWindow},
	})
	if err != nil {
		fail(err)
	}
	defer c.Close()

	opts := []client.Option{}
	if !*noHeal {
		opts = append(opts,
			client.WithRetry(*retries, 2*time.Millisecond, 100*time.Millisecond),
			client.WithFailover(),
			client.WithBreaker(8, 300*time.Millisecond),
		)
	}
	if *batch {
		opts = append(opts, client.WithBatching(64, 300*time.Microsecond))
	}
	cli, err := client.New(client.NewLoopback(c), opts...)
	if err != nil {
		fail(err)
	}
	defer cli.Close()

	ctx := context.Background()
	// Every op comes from a named cc/bench scenario, shared with
	// ccload, so the same declared workload shapes run under faults.
	wl, err := bench.NewScenario(*scenario, *objects, bench.RunConfig{Workers: *clients, Seed: *seed})
	if err != nil {
		fail(err)
	}
	for _, o := range wl.Objects() {
		if err := cli.CreateObject(ctx, o.Name, o.ADT); err != nil {
			fail(err)
		}
	}
	// Learn the ring epoch up front so topology events exercise the
	// stale-epoch redirect path: every in-flight request carries the old
	// epoch, gets the typed stale_ring error, refreshes, and retries.
	if _, err := cli.Ring(ctx); err != nil {
		fail(err)
	}

	var (
		gate      sync.RWMutex // write-held while convergence is asserted
		depth     atomic.Int32 // active faults (traffic tags ops by it)
		migrating atomic.Int32 // topology changes in flight
		hung      atomic.Int64
	)
	trk := newTracker()
	last := sched[len(sched)-1].at
	start := time.Now()
	deadline := start.Add(last + *tail)
	trk.start(start)

	var wg sync.WaitGroup
	for cl := 0; cl < *clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			sess := cli.Session(cl)
			rng := rand.New(rand.NewSource(*seed*7919 + int64(cl)))
			gen := wl.NewWorker(cl, rng)
			for step := 0; ; step++ {
				// Pause barrier: repair events hold the write lock while
				// they assert convergence, stopping new ops. In-flight
				// ops are left to drain on their own — a crash-stuck op
				// (its session's frontier lives only on the crashed
				// replica) is unblocked by the restart itself, so the
				// repair path must never wait for it.
				gate.RLock()
				gate.RUnlock()
				if !time.Now().Before(deadline) {
					return
				}
				op := gen.NextOp(step)
				inMigr := migrating.Load() > 0
				inFault := depth.Load() > 0
				if op.Create {
					// Growing-keyspace scenarios mint objects mid-run;
					// creation is idempotent on the server.
					if err := cli.CreateObject(ctx, op.Object, op.ADT); err != nil {
						trk.record(inMigr, inFault, true, 0)
						continue
					}
				}
				t0 := time.Now()
				fut := sess.InvokeAsync(op.Object, op.Input)
				octx, cancel := context.WithTimeout(ctx, *opTimeout)
				_, err := fut.Get(octx)
				cancel()
				if errors.Is(err, context.DeadlineExceeded) {
					// The future never resolved within the bound: the
					// hung-call failure mode the breaker exists to prevent.
					hung.Add(1)
					trk.record(inMigr, inFault, true, 0)
					return
				}
				trk.record(inMigr, inFault, err != nil, time.Since(t0))
			}
		}(cl)
	}

	// Fault executor: walk the schedule, tagging phases; repair events
	// (heal, restart) pause traffic and assert convergence.
	var (
		partitions, crashed, links int
		heals                      []healResult
	)
	for i := range sched {
		ev := &sched[i]
		if d := time.Until(start.Add(ev.at)); d > 0 {
			time.Sleep(d)
		}
		if ev.topology() {
			// Topology events run WITH traffic flowing — live migration
			// under load is exactly what they exercise — then pause and
			// assert convergence quiescently before moving on.
			migrating.Add(1)
			trk.setMigration(true)
			t0 := time.Now()
			var terr error
			detail := ev.raw
			if ev.verb == verbAddShard {
				var idx int
				if idx, terr = c.AddShard(); terr == nil {
					detail = fmt.Sprintf("%s -> shard %d", ev.raw, idx)
				}
			} else {
				terr = c.DrainShard(ev.shard)
			}
			migrating.Add(-1)
			trk.setMigration(false)
			gate.Lock()
			trk.pause()
			if terr == nil {
				terr = c.AwaitConvergence(*convergeTimeout)
			}
			heals = append(heals, healResult{event: ev.raw, took: time.Since(t0), err: terr})
			trk.resume(partitions+crashed+links > 0)
			gate.Unlock()
			status := "converged"
			if terr != nil {
				status = "FAILED: " + terr.Error()
			}
			fmt.Printf("ccchaos: %8s  %-24s %s in %v (epoch %d)\n",
				ev.at, detail, status, time.Since(t0).Round(time.Millisecond), c.RingEpoch())
			continue
		}
		repair := ev.verb == wire.FaultHeal || ev.verb == wire.FaultRestart
		if repair {
			gate.Lock()
			trk.pause()
		}
		ferr := cli.Fault(ctx, ev.wire())
		switch ev.verb {
		case wire.FaultPartition:
			partitions++
		case wire.FaultHeal:
			partitions = 0
		case wire.FaultCrash:
			crashed++
		case wire.FaultRestart:
			crashed--
		case wire.FaultLink:
			links++
		case wire.FaultLinkClear:
			links = 0
		}
		depth.Store(int32(partitions + crashed + links))
		faulty := partitions+crashed+links > 0
		if repair {
			t0 := time.Now()
			cerr := ferr
			if cerr == nil {
				cerr = c.AwaitConvergence(*convergeTimeout)
			}
			heals = append(heals, healResult{event: ev.raw, took: time.Since(t0), err: cerr})
			trk.resume(faulty)
			gate.Unlock()
			status := "converged"
			if cerr != nil {
				status = "FAILED: " + cerr.Error()
			}
			fmt.Printf("ccchaos: %8s  %-24s %s in %v\n", ev.at, ev.raw, status, time.Since(t0).Round(time.Millisecond))
		} else {
			if ferr != nil {
				heals = append(heals, healResult{event: ev.raw, err: ferr})
			}
			trk.setFault(faulty)
			fmt.Printf("ccchaos: %8s  %s\n", ev.at, ev.raw)
		}
	}

	wg.Wait()
	trk.stop()

	// Final quiescent convergence + verdict sweep.
	finalErr := c.AwaitConvergence(*convergeTimeout)
	sum, verdictErr := awaitVerdicts(c.Monitor().Summary, *convergeTimeout)
	met := cli.Metrics()

	steadyRate := rate(trk.steady.ops, trk.steadyDur)
	faultRate := rate(trk.fault.ops, trk.faultDur)
	migrRate := rate(trk.migr.ops, trk.migrDur)
	sLat, fLat, mLat := trk.steady.lat.Percentiles(), trk.fault.lat.Percentiles(), trk.migr.lat.Percentiles()
	totalErrs := trk.steady.errs + trk.fault.errs + trk.migr.errs
	fmt.Printf("ccchaos: steady %d ops in %v (%.0f ops/s) p50=%.0f p99=%.0f µs\n",
		trk.steady.ops, trk.steadyDur.Round(time.Millisecond), steadyRate, sLat.P50US, sLat.P99US)
	fmt.Printf("ccchaos: fault  %d ops in %v (%.0f ops/s) p50=%.0f p99=%.0f µs\n",
		trk.fault.ops, trk.faultDur.Round(time.Millisecond), faultRate, fLat.P50US, fLat.P99US)
	if hasTopology {
		fmt.Printf("ccchaos: migr   %d ops in %v (%.0f ops/s) p50=%.0f p99=%.0f µs  (ring epoch %d)\n",
			trk.migr.ops, trk.migrDur.Round(time.Millisecond), migrRate, mLat.P50US, mLat.P99US, c.RingEpoch())
	}
	fmt.Printf("ccchaos: errors=%d hung=%d retries=%d failovers=%d breaker_opens=%d fast_fails=%d\n",
		totalErrs, hung.Load(), met.Retries, met.Failovers, met.BreakerOpens, met.BreakerFastFails)
	monJSON, _ := json.Marshal(sum)
	fmt.Printf("ccchaos: monitor %s\n", monJSON)

	bad := 0
	complain := func(format string, args ...any) {
		bad++
		fmt.Fprintf(os.Stderr, "ccchaos: FAIL: "+format+"\n", args...)
	}
	for _, h := range heals {
		if h.err != nil {
			complain("%s: %v", h.event, h.err)
		}
	}
	if finalErr != nil {
		complain("final convergence: %v", finalErr)
	}
	if verdictErr != nil {
		complain("%v", verdictErr)
	}
	if len(sum.Violations) > 0 {
		complain("monitor reported %d violated windows under %s", len(sum.Violations), *criterion)
	}
	if *requireVerdicts && sum.Verdicts == 0 {
		complain("monitor produced no verdicts")
	}
	if hung.Load() > 0 {
		complain("%d futures hung past %v", hung.Load(), *opTimeout)
	}
	if !*noHeal && totalErrs > 0 {
		complain("%d client ops failed despite retry+failover", totalErrs)
	}
	if hasFaults && trk.fault.ops == 0 {
		complain("no operation completed under fault (schedule too short?)")
	}
	if hasTopology && trk.migr.ops == 0 {
		complain("no operation completed during a migration (schedule too short?)")
	}

	if *benchOut != "" {
		lbl := *label
		if lbl == "" {
			lbl = fmt.Sprintf("ccchaos %s/%s", *criterion, c.Replication())
		}
		entry := benchrec.NewHost(lbl, map[string]any{
			"config": map[string]any{
				"criterion": *criterion, "replication": c.Replication(),
				"shards": *shards, "replicas": *replicas, "clients": *clients,
				"objects": *objects, "scenario": *scenario,
				"batch": *batch, "selfheal": !*noHeal, "schedule": text,
				"storm": *storm, "ring_epoch": c.RingEpoch(),
			},
			"steady": map[string]any{
				"ops": trk.steady.ops, "ops_per_sec": math.Round(steadyRate),
				"p50_us": sLat.P50US, "p99_us": sLat.P99US,
			},
			"fault": map[string]any{
				"ops": trk.fault.ops, "ops_per_sec": math.Round(faultRate),
				"p50_us": fLat.P50US, "p99_us": fLat.P99US,
			},
			"migration": map[string]any{
				"ops": trk.migr.ops, "ops_per_sec": math.Round(migrRate),
				"p50_us": mLat.P50US, "p99_us": mLat.P99US,
			},
			"errors": totalErrs, "hung": hung.Load(),
			"selfheal_metrics": map[string]any{
				"retries": met.Retries, "failovers": met.Failovers,
				"breaker_opens": met.BreakerOpens, "breaker_fast_fails": met.BreakerFastFails,
			},
			"converge_events": len(heals),
			"monitor":         sum,
			"passed":          bad == 0,
		})
		n, err := benchrec.Append(*benchOut, entry)
		if err != nil {
			fail(err)
		}
		fmt.Printf("ccchaos: recorded %s (%d entries)\n", *benchOut, n)
	}
	if bad > 0 {
		os.Exit(1)
	}
	fmt.Println("ccchaos: PASS")
}

func rate(ops int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(ops) / d.Seconds()
}
