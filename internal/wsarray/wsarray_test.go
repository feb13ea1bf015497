package wsarray_test

import (
	"context"
	"math/rand"
	"testing"

	"github.com/paper-repro/ccbm/internal/adt"
	"github.com/paper-repro/ccbm/internal/check"
	"github.com/paper-repro/ccbm/internal/core"
	"github.com/paper-repro/ccbm/internal/sim"
	"github.com/paper-repro/ccbm/internal/trace"
	"github.com/paper-repro/ccbm/internal/wsarray"
)

// ccCluster wires n Fig. 4 replicas on a simulated network.
func ccCluster(n, streams, size int, seed int64) (*sim.Network, []*wsarray.CCArray, *trace.Recorder) {
	nw := sim.New(n, seed)
	rec := trace.New(adt.NewWindowArray(streams, size), n)
	arrs := make([]*wsarray.CCArray, n)
	for i := range arrs {
		arrs[i] = wsarray.NewCCArray(nw, i, streams, size, rec)
	}
	return nw, arrs, rec
}

// ccvCluster wires n Fig. 5 replicas on a simulated network.
func ccvCluster(n, streams, size int, seed int64) (*sim.Network, []*wsarray.CCvArray, *trace.Recorder) {
	nw := sim.New(n, seed)
	rec := trace.New(adt.NewWindowArray(streams, size), n)
	arrs := make([]*wsarray.CCvArray, n)
	for i := range arrs {
		arrs[i] = wsarray.NewCCvArray(nw, i, streams, size, rec)
	}
	return nw, arrs, rec
}

// TestFig4AlwaysCausallyConsistent is experiment E4's verification leg:
// random adversarial schedules of the exact Fig. 4 algorithm always
// produce causally consistent histories (Prop. 6).
func TestFig4AlwaysCausallyConsistent(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		nw, arrs, rec := ccCluster(3, 2, 2, seed)
		rng := rand.New(rand.NewSource(seed * 31))
		val := 1
		for i := 0; i < 9; i++ {
			p := rng.Intn(len(arrs))
			if rng.Intn(2) == 0 {
				arrs[p].Write(rng.Intn(2), val)
				val++
			} else {
				arrs[p].Read(rng.Intn(2))
			}
			for d := rng.Intn(4); d > 0; d-- {
				nw.Step()
			}
		}
		nw.Run(0)
		h := rec.History()
		ok, _, err := check.CC(context.Background(), h, check.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !ok {
			t.Fatalf("seed %d: Fig. 4 produced a non-CC history:\n%s", seed, h)
		}
	}
}

// TestFig5AlwaysCausallyConvergent is experiment E5's verification leg:
// random schedules of the exact Fig. 5 algorithm always produce
// causally convergent histories (Prop. 7), and all replicas converge
// after quiescence.
func TestFig5AlwaysCausallyConvergent(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		nw, arrs, rec := ccvCluster(3, 2, 2, seed)
		rng := rand.New(rand.NewSource(seed * 37))
		val := 1
		for i := 0; i < 9; i++ {
			p := rng.Intn(len(arrs))
			if rng.Intn(2) == 0 {
				arrs[p].Write(rng.Intn(2), val)
				val++
			} else {
				arrs[p].Read(rng.Intn(2))
			}
			for d := rng.Intn(4); d > 0; d-- {
				nw.Step()
			}
		}
		nw.Run(0)
		h := rec.History()
		ok, _, err := check.CCv(context.Background(), h, check.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !ok {
			t.Fatalf("seed %d: Fig. 5 produced a non-CCv history:\n%s", seed, h)
		}
		for p := 1; p < len(arrs); p++ {
			if arrs[p].StateKey() != arrs[0].StateKey() {
				t.Fatalf("seed %d: replicas %d and 0 diverged after quiescence", seed, p)
			}
		}
	}
}

// TestFig5TimestampInvariant: each stream's cells stay sorted by
// timestamp — the invariant the insertion loop maintains.
func TestFig5TimestampInvariant(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		nw, arrs, _ := ccvCluster(4, 3, 4, seed)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 60; i++ {
			arrs[rng.Intn(4)].Write(rng.Intn(3), i+1)
			for d := rng.Intn(5); d > 0; d-- {
				nw.Step()
			}
		}
		nw.Run(0)
		for p, a := range arrs {
			for x := 0; x < 3; x++ {
				ts := a.Timestamps(x)
				for y := 1; y < len(ts); y++ {
					if ts[y].Less(ts[y-1]) {
						t.Fatalf("seed %d: replica %d stream %d timestamps out of order: %v", seed, p, x, ts)
					}
				}
			}
		}
	}
}

// TestFig5MatchesGenericCCv cross-validates the specialized Fig. 5
// algorithm against the generic timestamp-log CCv replica: same seed,
// same workload, same delivery schedule — every read must return the
// same window. This pins the window-trimming optimization (keeping only
// the k newest cells) to the reference semantics.
//
// The two pick different total orders for CONCURRENT writes — Fig. 5
// its Lamport clock, the generic fold the causal stamp's coordinate
// sum — and CCv allows either, so the schedule settles before each
// write: writes are then causally ordered, both orders must coincide,
// and reads still race partial deliveries. The generic history's
// first ops are checked against CCv as well; concurrent writes are
// covered on each side by TestFig5AlwaysCausallyConvergent and core's
// Prop. 7 tests.
func TestFig5MatchesGenericCCv(t *testing.T) {
	const n, streams, size, ops, checked = 3, 2, 3, 40, 12
	for seed := int64(1); seed <= 10; seed++ {
		nwA, arrs, _ := ccvCluster(n, streams, size, seed)
		cB := core.NewCluster(n, adt.NewWindowArray(streams, size), core.ModeCCv, seed)
		rng := rand.New(rand.NewSource(seed * 101))
		val := 1
		for i := 0; i < ops; i++ {
			if i == checked {
				cB.DisableRecording() // the exact checker is exponential
			}
			p := rng.Intn(n)
			if rng.Intn(2) == 0 {
				nwA.Run(0)
				cB.Settle()
				x := rng.Intn(streams)
				arrs[p].Write(x, val)
				cB.Invoke(p, "w", x, val)
				val++
			} else {
				x := rng.Intn(streams)
				got := arrs[p].Read(x)
				want := cB.Invoke(p, "r", x)
				for y := range got {
					if got[y] != want.Vals[y] {
						t.Fatalf("seed %d op %d: Fig.5 read %v, generic CCv read %v", seed, i, got, want.Vals)
					}
				}
			}
			steps := rng.Intn(4)
			for d := 0; d < steps; d++ {
				nwA.Step()
				cB.Net.Step()
			}
		}
		nwA.Run(0)
		cB.Settle()
		h := cB.Recorder.History()
		ok, _, err := check.CCv(context.Background(), h, check.Options{Prune: check.PruneAll()})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !ok {
			t.Fatalf("seed %d: generic CCv replica produced a non-CCv history (first %d ops):\n%s", seed, checked, h)
		}
	}
}

// TestFig4MatchesGenericCC does the same cross-validation for Fig. 4
// against the generic apply-on-causal-delivery replica.
func TestFig4MatchesGenericCC(t *testing.T) {
	const n, streams, size, ops = 3, 2, 3, 40
	for seed := int64(1); seed <= 10; seed++ {
		nwA, arrs, _ := ccCluster(n, streams, size, seed)
		cB := core.NewCluster(n, adt.NewWindowArray(streams, size), core.ModeCC, seed)
		rng := rand.New(rand.NewSource(seed * 103))
		val := 1
		for i := 0; i < ops; i++ {
			p := rng.Intn(n)
			if rng.Intn(2) == 0 {
				x := rng.Intn(streams)
				arrs[p].Write(x, val)
				cB.Invoke(p, "w", x, val)
				val++
			} else {
				x := rng.Intn(streams)
				got := arrs[p].Read(x)
				want := cB.Invoke(p, "r", x)
				for y := range got {
					if got[y] != want.Vals[y] {
						t.Fatalf("seed %d op %d: Fig.4 read %v, generic CC read %v", seed, i, got, want.Vals)
					}
				}
			}
			steps := rng.Intn(4)
			for d := 0; d < steps; d++ {
				nwA.Step()
				cB.Net.Step()
			}
		}
		nwA.Run(0)
		cB.Settle()
	}
}

// TestFalseCausality reproduces Sec. 6.2's observation: the history of
// Fig. 3c is causally consistent, yet the Fig. 4 algorithm can never
// produce it — causal reception implements "a little more than
// causality". Each process would have to read its own value as the
// NEWER of the two, which requires each write to be delivered at the
// other process after the local one, i.e. each message to overtake the
// other under causal broadcast with immediate local delivery; then the
// second read of either process cannot see its own write first.
func TestFalseCausality(t *testing.T) {
	// Exhaust all delivery schedules of the two-write scenario: p0
	// writes 1, p1 writes 2 concurrently; each then reads. Under Fig. 4
	// the read of p0 can be (0,1) [own only], (1,2) or (2,1) depending
	// on delivery, but the PAIR (r0, r1) = ((2,1), (1,2)) — Fig. 3c —
	// is unreachable.
	for seed := int64(0); seed < 200; seed++ {
		nw, arrs, _ := ccCluster(2, 1, 2, seed)
		arrs[0].Write(0, 1)
		arrs[1].Write(0, 2)
		// Random interleaving of deliveries with the reads.
		rng := rand.New(rand.NewSource(seed))
		for d := rng.Intn(3); d > 0; d-- {
			nw.Step()
		}
		r0 := arrs[0].Read(0)
		for d := rng.Intn(3); d > 0; d-- {
			nw.Step()
		}
		r1 := arrs[1].Read(0)
		nw.Run(0)
		if r0[0] == 2 && r0[1] == 1 && r1[0] == 1 && r1[1] == 2 {
			t.Fatalf("seed %d: Fig. 4 produced the Fig. 3c false-causality outcome", seed)
		}
	}
}
