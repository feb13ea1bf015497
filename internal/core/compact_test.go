package core_test

import (
	"math/rand"
	"testing"

	"github.com/paper-repro/ccbm/internal/adt"
	"github.com/paper-repro/ccbm/internal/core"
)

// TestCompactLogPreservesReads: compacting the stable prefix of a CCv
// replica's log must not change any subsequent read, including after
// further concurrent writes. Cross-validated against an uncompacted
// twin cluster driven by the identical schedule.
func TestCompactLogPreservesReads(t *testing.T) {
	const n, streams, size, rounds = 3, 2, 3, 15
	for seed := int64(1); seed <= 10; seed++ {
		a := core.NewCluster(n, adt.NewWindowArray(streams, size), core.ModeCCv, seed)
		b := core.NewCluster(n, adt.NewWindowArray(streams, size), core.ModeCCv, seed)
		rng := rand.New(rand.NewSource(seed * 211))
		val := 1
		for i := 0; i < rounds; i++ {
			p := rng.Intn(n)
			x := rng.Intn(streams)
			if rng.Intn(2) == 0 {
				a.Invoke(p, "w", x, val)
				b.Invoke(p, "w", x, val)
				val++
			} else {
				ra := a.Invoke(p, "r", x)
				rb := b.Invoke(p, "r", x)
				if !ra.Equal(rb) {
					t.Fatalf("seed %d: compacted read %v differs from reference %v", seed, ra, rb)
				}
			}
			steps := rng.Intn(4)
			for d := 0; d < steps; d++ {
				a.Net.Step()
				b.Net.Step()
			}
			// Compact cluster a aggressively mid-run.
			for _, r := range a.Replicas {
				r.CompactLog()
			}
		}
		a.Settle()
		b.Settle()
		for p := 0; p < n; p++ {
			for x := 0; x < streams; x++ {
				ra := a.Invoke(p, "r", x)
				rb := b.Invoke(p, "r", x)
				if !ra.Equal(rb) {
					t.Fatalf("seed %d: final read p%d x%d: %v vs %v", seed, p, x, ra, rb)
				}
			}
		}
	}
}

// TestCompactLogShrinks: after quiescence every entry is stable only
// once every process has been heard from — a silent process blocks
// compaction; once all have written, the whole log compacts.
func TestCompactLogShrinks(t *testing.T) {
	c := core.NewCluster(3, adt.NewWindowArray(1, 2), core.ModeCCv, 4)
	// Only process 0 writes: nothing is stable (processes 1, 2 silent).
	for i := 0; i < 5; i++ {
		c.Invoke(0, "w", 0, i+1)
	}
	c.Settle()
	if got := c.Replicas[0].CompactLog(); got != 0 {
		t.Fatalf("compacted %d entries with silent peers", got)
	}
	// Everyone writes once; now the old entries are stable everywhere.
	c.Invoke(1, "w", 0, 100)
	c.Invoke(2, "w", 0, 101)
	c.Settle()
	before := c.Replicas[0].LogLen()
	removed := c.Replicas[0].CompactLog()
	if removed == 0 {
		t.Fatal("nothing compacted after hearing from every process")
	}
	if c.Replicas[0].LogLen() != before-removed {
		t.Fatalf("log length %d after removing %d from %d", c.Replicas[0].LogLen(), removed, before)
	}
	// Reads still correct.
	out := c.Invoke(0, "r", 0)
	if len(out.Vals) != 2 {
		t.Fatalf("read = %v", out)
	}
}

// TestCompactLogNoopOnCC: compaction only applies to the timestamp-log
// modes.
func TestCompactLogNoopOnCC(t *testing.T) {
	c := core.NewCluster(2, adt.NewWindowArray(1, 2), core.ModeCC, 1)
	c.Invoke(0, "w", 0, 1)
	c.Settle()
	if got := c.Replicas[0].CompactLog(); got != 0 {
		t.Fatalf("CC mode compacted %d entries", got)
	}
}

// TestCompactLogSoundInEveryMode: interleaving CompactLog with partial
// delivery must never cost convergence. CCv compacts what causal
// (per-origin FIFO) delivery makes stable; EC's unordered flood can
// deliver an old timestamp after newer ones from the same origin, so
// nothing is ever stable there and compaction must refuse — folding
// anyway bakes a prefix that a late update should have preceded.
func TestCompactLogSoundInEveryMode(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeEC, core.ModeCCv} {
		for seed := int64(0); seed < 50; seed++ {
			c := core.NewCluster(3, adt.Queue{}, mode, seed)
			for i := 0; i < 12; i++ {
				c.Invoke(i%3, "push", i+1)
				c.Net.Step()
				c.Net.Step()
				for _, r := range c.Replicas {
					r.CompactLog()
				}
			}
			c.Settle()
			if !c.Converged() {
				t.Fatalf("%v seed %d: replicas diverged after interleaved compaction", mode, seed)
			}
		}
	}
}

// TestCCConvergesOnCommutativeADT: for update-commutative data types
// (the counter), the apply-on-delivery CC runtime converges even
// without timestamps — the two branches of Fig. 1 coincide when
// concurrent updates commute, which is why CRDTs live happily in the
// convergence branch.
func TestCCConvergesOnCommutativeADT(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		c := core.NewCluster(3, adt.Counter{}, core.ModeCC, seed)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 30; i++ {
			c.Invoke(rng.Intn(3), "inc", rng.Intn(5)+1)
			for d := rng.Intn(3); d > 0; d-- {
				c.Net.Step()
			}
		}
		c.Settle()
		if !c.Converged() {
			t.Fatalf("seed %d: counters diverged under CC", seed)
		}
	}
}

// TestPCAllowsCausalityViolation separates the PC runtime from the CC
// runtime operationally: FIFO delivery can let process 2 observe p1's
// write (issued after p1 read p0's write) before p0's own write — a
// causal inversion that causal delivery precludes on every schedule.
// Delays are randomized and the seed space searched: some schedule
// must produce the inversion under PC, no schedule may under CC. This
// is the runtime counterpart of PC ⊉ WCC.
func TestPCAllowsCausalityViolation(t *testing.T) {
	// run probes p2 the moment the effect (stream 1 = 8) becomes
	// visible and reports whether the cause (stream 0 = 7) was there.
	run := func(mode core.Mode, seed int64) (inverted bool) {
		c := core.NewCluster(3, adt.NewWindowArray(2, 1), mode, seed)
		c.Net.MinDelay, c.Net.MaxDelay = 1, 100
		c.Invoke(0, "w", 0, 7)
		for c.Invoke(1, "r", 0).Vals[0] != 7 {
			if !c.Net.Step() {
				break
			}
		}
		c.Invoke(1, "w", 1, 8) // the causally-later effect
		for c.Invoke(2, "r", 1).Vals[0] != 8 {
			if !c.Net.Step() {
				break
			}
		}
		inverted = c.Invoke(2, "r", 1).Vals[0] == 8 && c.Invoke(2, "r", 0).Vals[0] != 7
		c.Settle()
		return
	}
	const seeds = 300
	pcInversions := 0
	for seed := int64(0); seed < seeds; seed++ {
		if run(core.ModePC, seed) {
			pcInversions++
		}
		if run(core.ModeCC, seed) {
			t.Fatalf("seed %d: causal delivery exposed the effect before its cause", seed)
		}
	}
	if pcInversions == 0 {
		t.Fatalf("no schedule out of %d produced the PC causal inversion", seeds)
	}
	t.Logf("PC causal inversions: %d/%d schedules", pcInversions, seeds)
}
