package check

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/paper-repro/ccbm/internal/adt"
	"github.com/paper-repro/ccbm/internal/history"
	"github.com/paper-repro/ccbm/internal/spec"
)

// The differential harness for the pruning layer: every pruner
// configuration must return the same verdict (and the same error
// class) as the exhaustive search, on the paper's corpus, the
// metamorphic variants, an exhaustive mini-census and seeded random
// histories — for all of WCC, CC and CCv. Canonicalization and
// sleep-set exclusion additionally preserve the witness bit for bit;
// the symmetry quotient may return a renamed equivalent, so its
// witnesses are instead re-validated by the checker-independent
// validator (validate.go).

// pruneConfigs enumerates the pruner configurations under test: each
// pruner alone, the witness-preserving pair, and everything.
var pruneConfigs = []struct {
	name string
	cfg  Prune
}{
	{"canon", Prune{Canon: true}},
	{"sleep", Prune{Sleep: true}},
	{"canon+sleep", Prune{Canon: true, Sleep: true}},
	{"symmetry", Prune{Symmetry: true}},
	{"all", PruneAll()},
}

// comparePruned checks every pruner configuration against the
// exhaustive search on all three causal criteria.
func comparePruned(t *testing.T, h *history.History, name string) {
	t.Helper()
	for _, c := range []Criterion{CritWCC, CritCC, CritCCv} {
		okS, wS, errS := Check(context.Background(), c, h, Options{})
		for _, pc := range pruneConfigs {
			okP, wP, errP := Check(context.Background(), c, h, Options{Prune: pc.cfg})
			if okS != okP || (errS == nil) != (errP == nil) {
				t.Fatalf("%s: %v: exhaustive (%v, %v) != pruned[%s] (%v, %v)",
					name, c, okS, errS, pc.name, okP, errP)
			}
			if !pc.cfg.Symmetry {
				// Canonicalization and sleep sets always keep the
				// lexicographically first witness alive: bit-identical.
				if !reflect.DeepEqual(wS, wP) {
					t.Fatalf("%s: %v: witness diverged under %s\nexhaustive: %+v\npruned:     %+v",
						name, c, pc.name, wS, wP)
				}
			} else if okP {
				// The symmetry quotient may surface a renamed
				// equivalent; it must still be a legal witness.
				if err := ValidateWitness(h, c, wP); err != nil {
					t.Fatalf("%s: %v: pruned[%s] witness invalid: %v", name, c, pc.name, err)
				}
			}
		}
	}
}

func TestPruneFig3Corpus(t *testing.T) {
	for _, text := range fig3Texts {
		h := history.MustParse(text)
		name := strings.SplitN(text, "\n", 2)[0]
		comparePruned(t, h, name)
		comparePruned(t, h.StripOmega(), name+" (finite)")
	}
}

// TestPruneMetamorphicCorpus runs the differential check over the
// metamorphic variants of the corpus: value relabelings, process
// renamings and event relabelings all preserve the criteria, so
// pruned and exhaustive searches must agree on every variant too
// (process renaming in particular permutes the symmetry classes).
func TestPruneMetamorphicCorpus(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for i, text := range fig3Texts {
		h := history.MustParse(text)
		name := fmt.Sprintf("fig3[%d]", i)
		if dataIndependent(h.ADT) {
			comparePruned(t, relabelValues(h, map[int]int{1: 2, 2: 3, 3: 1}), name+" relabeled")
		}
		procs := len(h.Processes())
		perm := make([]int, procs)
		for p := range perm {
			perm[p] = procs - 1 - p
		}
		comparePruned(t, renameProcesses(h, perm), name+" renamed")
		comparePruned(t, relabelEvents(h, r), name+" shuffled")
	}
}

// TestPruneRandomHistories covers ≥250 seeded random histories (same
// generator as the other differential suites, independent seed).
func TestPruneRandomHistories(t *testing.T) {
	rounds := 250
	if testing.Short() {
		rounds = 60
	}
	r := rand.New(rand.NewSource(19114))
	for i := 0; i < rounds; i++ {
		h := randomHistory(r)
		comparePruned(t, h, fmt.Sprintf("random[%d] %s", i, h.ADT.Name()))
	}
}

// TestPruneMiniCensusW1 exhaustively cross-checks pruned vs exhaustive
// over every W1 history of shape [2,2] — the same space the
// seed-vs-rewrite differential test enumerates.
func TestPruneMiniCensusW1(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive enumeration")
	}
	w1 := adt.NewWindowStream(1)
	ops := []spec.Operation{
		spec.NewOp(spec.NewInput("w", 1), spec.Bot),
		spec.NewOp(spec.NewInput("w", 2), spec.Bot),
		spec.NewOp(spec.NewInput("r"), spec.IntOutput(0)),
		spec.NewOp(spec.NewInput("r"), spec.IntOutput(1)),
		spec.NewOp(spec.NewInput("r"), spec.IntOutput(2)),
	}
	var idx [4]int
	for idx[0] = 0; idx[0] < len(ops); idx[0]++ {
		for idx[1] = 0; idx[1] < len(ops); idx[1]++ {
			for idx[2] = 0; idx[2] < len(ops); idx[2]++ {
				for idx[3] = 0; idx[3] < len(ops); idx[3]++ {
					b := history.NewBuilder(w1)
					b.Append(0, ops[idx[0]])
					b.Append(0, ops[idx[1]])
					b.Append(1, ops[idx[2]])
					b.Append(1, ops[idx[3]])
					comparePruned(t, b.Build(), fmt.Sprintf("census[%d%d%d%d]", idx[0], idx[1], idx[2], idx[3]))
				}
			}
		}
	}
}

// TestPruneReducesNodes pins the point of the exercise: on the
// hardest Fig. 3 history (3h), full pruning must explore at least 2×
// fewer nodes than the exhaustive search, with identical verdicts —
// the acceptance bar the benchmark records reproduce.
func TestPruneReducesNodes(t *testing.T) {
	h := history.MustParse(fig3Texts[7]) // 3h, 12 events
	var exhaustive, pruned int64
	for _, c := range []Criterion{CritWCC, CritCC, CritCCv} {
		sE := &Stats{}
		okE, _, err := Check(context.Background(), c, h, Options{Stats: sE})
		if err != nil {
			t.Fatalf("%v exhaustive: %v", c, err)
		}
		sP := &Stats{}
		okP, _, err := Check(context.Background(), c, h, Options{Stats: sP, Prune: PruneAll()})
		if err != nil {
			t.Fatalf("%v pruned: %v", c, err)
		}
		if okE != okP {
			t.Fatalf("%v: verdict flipped under pruning: %v vs %v", c, okE, okP)
		}
		if sP.Nodes > sE.Nodes {
			t.Errorf("%v: pruned search explored MORE nodes: %d vs %d", c, sP.Nodes, sE.Nodes)
		}
		if sP.Prune.Total() == 0 {
			t.Errorf("%v: pruning counters all zero on 3h", c)
		}
		t.Logf("%v: exhaustive %d nodes, pruned %d nodes (canon %d, sleep %d, sym %d)",
			c, sE.Nodes, sP.Nodes, sP.Prune.CanonHits, sP.Prune.SleepSkips, sP.Prune.SymSkips)
		exhaustive += sE.Nodes
		pruned += sP.Nodes
	}
	if pruned*2 > exhaustive {
		t.Fatalf("pruning reduced 3h exploration only %d → %d nodes (< 2×)", exhaustive, pruned)
	}
}

// TestPruneCountersPlumbed checks that each pruner's counter fires on
// a history crafted for it and flows through Options.Stats.
func TestPruneCountersPlumbed(t *testing.T) {
	// Two identical processes, inconsistent outputs: the search
	// backtracks through every commit order, so the symmetry quotient,
	// the sleep rule and the canonical table all engage.
	sym := history.MustParse("adt: Counter\np0: inc get/9\np1: inc get/9")
	s := &Stats{}
	ok, _, err := Check(context.Background(), CritCCv, sym, Options{Stats: s, Prune: PruneAll()})
	if err != nil || ok {
		t.Fatalf("(%v, %v), want unsatisfiable", ok, err)
	}
	if s.Prune.SleepSkips == 0 || s.Prune.SymSkips == 0 {
		t.Fatalf("expected sleep and symmetry counters > 0, got %+v", s.Prune)
	}

	// 3h under CC drives enough backtracking for canonical hits (CCv
	// refutes it almost immediately, before the table ever fills).
	h := history.MustParse(fig3Texts[7])
	s = &Stats{}
	if _, _, err := Check(context.Background(), CritCC, h, Options{Stats: s, Prune: Prune{Canon: true}}); err != nil {
		t.Fatal(err)
	}
	if s.Prune.CanonHits == 0 {
		t.Fatalf("expected canonical hits on 3h, got %+v", s.Prune)
	}
	if s.Prune.SleepSkips != 0 || s.Prune.SymSkips != 0 {
		t.Fatalf("disabled pruners reported work: %+v", s.Prune)
	}
}

// TestPruneSymmetryRequiresChains pins the safety gate: the symmetry
// quotient only applies to identical-program processes whose program
// order is a plain chain. Extra cross-process edges disable it (the
// renaming argument breaks), leaving the verdict to the other layers.
func TestPruneSymmetryRequiresChains(t *testing.T) {
	build := func() *history.Builder {
		b := history.NewBuilder(adt.Counter{})
		b.Append(0, spec.NewOp(spec.NewInput("inc"), spec.Bot))
		b.Append(0, spec.NewOp(spec.NewInput("get"), spec.IntOutput(9)))
		b.Append(1, spec.NewOp(spec.NewInput("inc"), spec.Bot))
		b.Append(1, spec.NewOp(spec.NewInput("get"), spec.IntOutput(9)))
		return b
	}

	chain := build().Build()
	s := &Stats{}
	if ok, _, err := Check(context.Background(), CritWCC, chain, Options{Stats: s, Prune: Prune{Symmetry: true}}); ok || err != nil {
		t.Fatalf("chain: (%v, %v), want unsatisfiable", ok, err)
	}
	if s.Prune.SymSkips == 0 {
		t.Fatal("chain-shaped identical processes should engage the quotient")
	}

	edged := build()
	edged.Edge(0, 3) // p0's inc 7→ p1's get: programs are no longer chains
	h := edged.Build()
	s = &Stats{}
	ok, _, err := Check(context.Background(), CritWCC, h, Options{Stats: s, Prune: Prune{Symmetry: true}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Prune.SymSkips != 0 {
		t.Fatalf("quotient engaged on a non-chain program order: %+v", s.Prune)
	}
	okE, _, errE := Check(context.Background(), CritWCC, h, Options{})
	if ok != okE || (err == nil) != (errE == nil) {
		t.Fatalf("edged: pruned (%v, %v) != exhaustive (%v, %v)", ok, err, okE, errE)
	}
}

// TestPruneBudgetExhaustion: a starved search, pruned or not, surfaces
// the typed budget error rather than a verdict (pruning shrinks the
// tree but cannot rescue a budget this small).
func TestPruneBudgetExhaustion(t *testing.T) {
	h := history.MustParse(fig3Texts[7]) // 3h, 12 events
	for _, prune := range []Prune{{}, PruneAll()} {
		_, _, err := Check(context.Background(), CritCCv, h, Options{MaxNodes: 5, Prune: prune})
		var be *ErrBudgetExceeded
		if !errors.Is(err, ErrBudget) || !errors.As(err, &be) {
			t.Fatalf("prune=%+v: got %v, want *ErrBudgetExceeded", prune, err)
		}
		if be.Criterion != CritCCv || be.MaxNodes != 5 {
			t.Fatalf("prune=%+v: bad error payload: %+v", prune, be)
		}
	}
}

// TestPruneRaceStress runs pruned classifications from many
// goroutines at once; meaningful under -race, where it shows that
// concurrent searches share no mutable state.
func TestPruneRaceStress(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, text := range fig3Texts {
				h := history.MustParse(text)
				for _, c := range []Criterion{CritWCC, CritCC, CritCCv} {
					s := &Stats{}
					if _, _, err := Check(context.Background(), c, h, Options{Prune: PruneAll(), Stats: s}); err != nil {
						t.Errorf("%v: %v", c, err)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzPruneEquivalence fuzzes the pruning layer against the
// exhaustive search over parseable history texts. Seeds deliberately
// include fingerprint-collision shapes: identical writes on distinct
// processes (equal ADT states under distinct commit orders),
// commuting updates to independent registers, and identical-program
// processes (symmetry classes). The nightly fuzz smoke job runs this
// target.
func FuzzPruneEquivalence(f *testing.F) {
	for _, text := range fig3Texts {
		f.Add(text)
	}
	f.Add("adt: W2\np0: w(1) r/(0,1)\np1: w(1) r/(0,1)")      // identical writes: colliding state fingerprints
	f.Add("adt: M[a-b]\np0: wa(1) rb/2\np1: wb(2) ra/1")      // commuting updates to independent cells
	f.Add("adt: Counter\np0: inc get/2\np1: inc get/2")       // identical programs: symmetry classes
	f.Add("adt: Counter\np0: inc get/9\np1: inc get/9")       // identical programs, unsatisfiable: full backtrack
	f.Add("adt: Queue\np0: push(1) push(1) pop/1\np1: pop/1") // identical inputs inside one process
	f.Fuzz(func(t *testing.T, text string) {
		h, err := history.Parse(text)
		if err != nil || h.N() == 0 || h.N() > 11 {
			t.Skip()
		}
		for _, c := range []Criterion{CritWCC, CritCC, CritCCv} {
			opt := Options{MaxNodes: 200000}
			okE, _, errE := Check(context.Background(), c, h, opt)
			opt.Prune = PruneAll()
			okP, wP, errP := Check(context.Background(), c, h, opt)
			if errE != nil || errP != nil {
				// A budget blown on one side only is legitimate
				// (pruning shrinks the tree); nothing to compare.
				continue
			}
			if okE != okP {
				t.Fatalf("%v: exhaustive %v != pruned %v\n%s", c, okE, okP, text)
			}
			if okP {
				if err := ValidateWitness(h, c, wP); err != nil {
					t.Fatalf("%v: pruned witness invalid: %v\n%s", c, err, text)
				}
			}
		}
	})
}
