// Package bench is the public workload and load-testing subsystem of
// the cc serving stack: named YCSB-grade scenarios behind a pluggable
// Workload interface, an open-loop arrival-rate driver whose latency
// clock starts at each operation's *intended* start (so queueing
// delay is measured instead of silently omitted — the coordinated
// omission pathology of closed-loop harnesses), an HDR-style
// log-bucketed latency histogram, and a ramp controller that steps
// the offered rate until the service stops keeping up and reports
// the knee of the throughput/latency curve.
//
// # Workloads
//
// A Workload declares its shape — ADT mix, key distribution
// (zipf/uniform/latest), op percentages — and produces per-worker op
// streams. Scenarios register by name, exactly like checker.Register
// registers criteria:
//
//	w, err := bench.Lookup("read-heavy")
//	err = w.Init(bench.Config{Objects: 16, Workers: 8, Seed: 1})
//	worker := w.NewWorker(0, rng)
//	op := worker.NextOp(step) // {Object, Input, Update, Kind}
//
// Six scenarios are built in: read-heavy (cache reads over
// Register/GSet, zipf), write-heavy (a counter fleet, uniform),
// session-cart (per-session carts whose reads depend on the
// session's own writes, plus a shared catalog), insert-grow (a
// growing keyspace with inserts and latest-skewed reads), scan-range
// (scan/range ops on Sequence and GSet), and mixed (six ADTs through
// the engine's per-ADT generators, the load tools' default).
//
// # Open-loop driving
//
// Run schedules arrivals on a target-rate clock (Poisson or fixed
// interval, split across workers) and executes each op through an
// Executor (NewClientExecutor adapts a cc/client.Client). Latency is
// recorded twice: from the intended arrival time (the number that
// includes queueing delay and survives stalls) and from the actual
// invocation (naive stopwatch service time). Rate 0 degrades to the
// classic closed loop, where the two clocks coincide; Inflight > 1
// pipelines it through an AsyncExecutor.
//
// # Finding the knee
//
// Ramp repeats Run at stepped offered rates until the achieved rate
// falls below FloorRatio of offered or the intended-clock p99 blows
// past MaxP99, then reports the last sustained step as the knee.
// Reports append to the repo's BENCH_*.json trajectory via
// AppendRecord.
package bench
