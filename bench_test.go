package ccbm

// The benchmark harness: one benchmark per figure of the paper plus
// the extension ablations. Absolute numbers depend on the
// host; the reproduced *shapes* are:
//
//   Fig. 1  — checker costs across the criteria hierarchy (stronger
//             criteria are costlier to decide);
//   Fig. 2  — time-zone computation is linear in history size;
//   Fig. 3  — exact classification of each example history;
//   Fig. 4  — CC runtime: wait-free updates (latency independent of
//             delivery), one broadcast per update, zero per query;
//   Fig. 5  — CCv runtime: same message economy plus convergence; the
//             specialized window insertion beats generic log replay;
//   Sec. 2.1 — consensus through an SC window stream (not wait-free,
//             cost grows with the total-order round trips).
//
// Run with: go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/paper-repro/ccbm/internal/adt"
	"github.com/paper-repro/ccbm/internal/broadcast"
	"github.com/paper-repro/ccbm/internal/check"
	"github.com/paper-repro/ccbm/internal/consensus"
	"github.com/paper-repro/ccbm/internal/core"
	"github.com/paper-repro/ccbm/internal/history"
	"github.com/paper-repro/ccbm/internal/paperfig"
	"github.com/paper-repro/ccbm/internal/sim"
	"github.com/paper-repro/ccbm/internal/trace"
	"github.com/paper-repro/ccbm/internal/workload"
	"github.com/paper-repro/ccbm/internal/wsarray"
)

// BenchmarkFig3Classify decides every caption claim of Fig. 3 (the
// paper's example histories) with the exact checkers.
func BenchmarkFig3Classify(b *testing.B) {
	for _, f := range paperfig.Fig3() {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			omega := f.History()
			finite := f.FiniteHistory()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, cl := range f.Claims {
					h := finite
					if cl.OmegaReading {
						h = omega
					}
					if _, _, err := check.Check(context.Background(), cl.Criterion, h, check.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkFig1HierarchyCheck classifies one history against every
// criterion of the Fig. 1 map, per criterion.
func BenchmarkFig1HierarchyCheck(b *testing.B) {
	f, _ := paperfig.Fig3ByName("3c")
	h := f.History()
	for _, c := range []check.Criterion{check.CritEC, check.CritUC, check.CritPC, check.CritWCC, check.CritCCv, check.CritCC, check.CritSC} {
		c := c
		b.Run(c.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := check.Check(context.Background(), c, h, check.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWindowCC checks a monitor-window-shaped history — a causal
// counter over 6 sessions and 40 operations, inc/get alternating,
// outputs from the round-robin interleaving — under CC with every
// pruner on and one worker: the online monitor's per-window cost.
func BenchmarkWindowCC(b *testing.B) {
	const procs, total = 6, 40
	lines := make([][]string, procs)
	count := 0
	for i := 0; i < total; i++ {
		p := i % procs
		if i%2 == 0 {
			lines[p] = append(lines[p], "inc")
			count++
		} else {
			lines[p] = append(lines[p], fmt.Sprintf("get/%d", count))
		}
	}
	var sb strings.Builder
	sb.WriteString("adt: Counter\n")
	for p := range lines {
		fmt.Fprintf(&sb, "p%d: %s\n", p, strings.Join(lines[p], " "))
	}
	h := history.MustParse(sb.String())
	opt := check.Options{Prune: check.PruneAll()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ok, _, err := check.Check(context.Background(), check.CritCC, h, opt)
		if err != nil || !ok {
			b.Fatalf("CC = %v, %v; want true, nil", ok, err)
		}
	}
}

// BenchmarkFig2Zones computes the six time zones of every event of the
// Fig. 2-shaped history.
func BenchmarkFig2Zones(b *testing.B) {
	h, extra := paperfig.Fig2History()
	causal := check.CausalOrderFrom(h, extra)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for e := 0; e < h.N(); e++ {
			check.ZonesOf(h, causal, e)
		}
	}
}

// benchRuntimeWrite measures update latency on a simulated cluster:
// the paper's wait-freedom means this cost must not include any
// network round trip (messages are drained outside the timed path by
// the settle step, whose cost is measured separately in
// BenchmarkDeliveryCost).
func benchRuntimeWrite(b *testing.B, mode core.Mode, n int) {
	c := core.NewCluster(n, adt.NewWindowArray(4, 2), mode, 1)
	c.DisableRecording()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Invoke(i%n, "w", i%4, i)
		if c.Net.Pending() > 10000 {
			b.StopTimer()
			c.Settle()
			b.StartTimer()
		}
	}
	b.StopTimer()
	c.Settle()
}

func benchRuntimeRead(b *testing.B, mode core.Mode, n int) {
	c := core.NewCluster(n, adt.NewWindowArray(4, 2), mode, 1)
	c.DisableRecording()
	for i := 0; i < 100; i++ {
		c.Invoke(i%n, "w", i%4, i)
	}
	c.Settle()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Invoke(i%n, "r", i%4)
	}
}

// BenchmarkFig4CC: the causally consistent runtime (generalized
// Fig. 4), write and read paths across cluster sizes.
func BenchmarkFig4CC(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("write/n=%d", n), func(b *testing.B) { benchRuntimeWrite(b, core.ModeCC, n) })
		b.Run(fmt.Sprintf("read/n=%d", n), func(b *testing.B) { benchRuntimeRead(b, core.ModeCC, n) })
	}
}

// BenchmarkFig5CCv: the causally convergent runtime (generalized
// Fig. 5), write and read paths across cluster sizes.
func BenchmarkFig5CCv(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("write/n=%d", n), func(b *testing.B) { benchRuntimeWrite(b, core.ModeCCv, n) })
		b.Run(fmt.Sprintf("read/n=%d", n), func(b *testing.B) { benchRuntimeRead(b, core.ModeCCv, n) })
	}
}

// BenchmarkFig5Specialized: the exact Fig. 5 window-array algorithm
// (in-place timestamp insertion) versus the generic timestamp-log
// replica it specializes.
func BenchmarkFig5Specialized(b *testing.B) {
	const n, streams, size = 3, 4, 4
	b.Run("wsarray", func(b *testing.B) {
		nw := sim.New(n, 1)
		rec := (*trace.Recorder)(nil)
		arrs := make([]*wsarray.CCvArray, n)
		for i := range arrs {
			arrs[i] = wsarray.NewCCvArray(nw, i, streams, size, rec)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			arrs[i%n].Write(i%streams, i)
			if nw.Pending() > 10000 {
				b.StopTimer()
				nw.Run(0)
				b.StartTimer()
			}
		}
		b.StopTimer()
		nw.Run(0)
	})
	b.Run("generic", func(b *testing.B) { benchRuntimeWrite(b, core.ModeCCv, n) })
}

// BenchmarkFig5ReadAfterManyWrites isolates the query path where the
// specialization matters most: the generic replica replays its update
// log (amortized by a cache), the Fig. 5 array reads k cells.
func BenchmarkFig5ReadAfterManyWrites(b *testing.B) {
	const n, streams, size, writes = 3, 4, 4, 2000
	b.Run("wsarray", func(b *testing.B) {
		nw := sim.New(n, 1)
		arrs := make([]*wsarray.CCvArray, n)
		for i := range arrs {
			arrs[i] = wsarray.NewCCvArray(nw, i, streams, size, nil)
		}
		for i := 0; i < writes; i++ {
			arrs[i%n].Write(i%streams, i)
		}
		nw.Run(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			arrs[i%n].Read(i % streams)
		}
	})
	b.Run("generic", func(b *testing.B) {
		c := core.NewCluster(n, adt.NewWindowArray(streams, size), core.ModeCCv, 1)
		c.DisableRecording()
		for i := 0; i < writes; i++ {
			c.Invoke(i%n, "w", i%streams, i)
		}
		c.Settle()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Invoke(i%n, "r", i%streams)
		}
	})
}

// BenchmarkDeliveryCost measures the off-critical-path work: draining
// one update's messages through each broadcast discipline.
func BenchmarkDeliveryCost(b *testing.B) {
	for _, tc := range []struct {
		name string
		mode core.Mode
	}{{"causal", core.ModeCC}, {"fifo", core.ModePC}, {"reliable", core.ModeEC}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			c := core.NewCluster(4, adt.NewWindowArray(2, 2), tc.mode, 1)
			c.DisableRecording()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Invoke(i%4, "w", i%2, i)
				c.Settle()
			}
		})
	}
}

// BenchmarkCausalBroadcast measures the causal layer alone: one
// broadcast fully delivered to n processes (flooding included).
func BenchmarkCausalBroadcast(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			nw := sim.New(n, 1)
			sink := 0
			var bs []*broadcast.Causal
			for i := 0; i < n; i++ {
				bs = append(bs, broadcast.NewCausal(nw, i, func(int, any) { sink++ }))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bs[i%n].Broadcast(i)
				nw.Run(0)
			}
			_ = sink
		})
	}
}

// BenchmarkCheckerScaling: cost of the exact SC and CC checkers as the
// history grows — the exponential wall that motivates keeping checked
// runs small.
func BenchmarkCheckerScaling(b *testing.B) {
	for _, ops := range []int{6, 9, 12} {
		ops := ops
		b.Run(fmt.Sprintf("events=%d", ops), func(b *testing.B) {
			cfg := workload.Config{
				Procs: 3, Ops: ops, Streams: 2, Size: 2,
				WriteRatio: 0.5, Seed: 42, MaxStepsBetween: 3,
			}
			res := workload.Run(core.ModeCC, cfg)
			h := res.Cluster.Recorder.History()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := check.CC(context.Background(), h, check.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConsensus: consensus through a sequentially consistent
// window stream (Sec. 2.1) — inherently waiting on total order, its
// cost is dominated by round trips, unlike every wait-free benchmark
// above.
func BenchmarkConsensus(b *testing.B) {
	for _, k := range []int{2, 3, 5} {
		k := k
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				obj := consensus.New(k)
				var wg sync.WaitGroup
				for p := 0; p < k; p++ {
					wg.Add(1)
					go func(p int) {
						defer wg.Done()
						if _, err := obj.Propose(p, 10+p); err != nil {
							b.Error(err)
						}
					}(p)
				}
				wg.Wait()
				obj.Close()
			}
		})
	}
}

// BenchmarkWindowParams sweeps the object's own parameters — K streams
// and window size k (the paper's W_k^K; k is also W_k's consensus
// number) — on the exact Fig. 5 algorithm: insertion cost is O(k) per
// delivered write and independent of K.
func BenchmarkWindowParams(b *testing.B) {
	for _, kk := range []struct{ K, k int }{{1, 2}, {4, 2}, {16, 2}, {4, 8}, {4, 32}} {
		kk := kk
		b.Run(fmt.Sprintf("K=%d/k=%d", kk.K, kk.k), func(b *testing.B) {
			nw := sim.New(3, 1)
			arrs := make([]*wsarray.CCvArray, 3)
			for i := range arrs {
				arrs[i] = wsarray.NewCCvArray(nw, i, kk.K, kk.k, nil)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arrs[i%3].Write(i%kk.K, i)
				if nw.Pending() > 10000 {
					b.StopTimer()
					nw.Run(0)
					b.StartTimer()
				}
			}
			b.StopTimer()
			nw.Run(0)
		})
	}
}

// BenchmarkModeComparison: the write path of every wait-free mode side
// by side — the cost of the consistency ladder at the update site
// (delivery-order bookkeeping for CC/PC, timestamp-log insertion for
// EC/CCv).
func BenchmarkModeComparison(b *testing.B) {
	for _, mode := range []core.Mode{core.ModeEC, core.ModePC, core.ModeCC, core.ModeCCv} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) { benchRuntimeWrite(b, mode, 4) })
	}
}

// BenchmarkCompactLog: the generic CCv log-compaction extension —
// folding the stable prefix after bursts of writes keeps query replay
// bounded.
func BenchmarkCompactLog(b *testing.B) {
	c := core.NewCluster(3, adt.NewWindowArray(2, 2), core.ModeCCv, 1)
	c.DisableRecording()
	v := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 10; j++ {
			v++
			c.Invoke(v%3, "w", v%2, v)
		}
		b.StopTimer()
		c.Settle()
		b.StartTimer()
		for _, r := range c.Replicas {
			r.CompactLog()
		}
	}
}

// BenchmarkSessionGuarantees: deciding Terry's four guarantees on a
// runtime memory history.
func BenchmarkSessionGuarantees(b *testing.B) {
	mem := adt.NewMemory("x", "y")
	c := core.NewCluster(3, mem, core.ModeCC, 1)
	vals := 0
	for i := 0; i < 10; i++ {
		if i%2 == 0 && vals < 6 {
			vals++
			c.Invoke(i%3, "wx", vals)
		} else {
			c.Invoke(i%3, "rx")
		}
		c.Net.Step()
	}
	c.Settle()
	h := c.Recorder.History()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := check.Sessions(h, check.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
