package check

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/paper-repro/ccbm/internal/adt"
	"github.com/paper-repro/ccbm/internal/history"
	"github.com/paper-repro/ccbm/internal/spec"
)

// Metamorphic properties of the classification pipeline: the paper's
// criteria are defined up to isomorphism of the labelled partial
// order, so a classification must be invariant under
//
//   - value relabeling (a permutation of the data alphabet applied to
//     every input and output — the ADTs under test are
//     data-independent),
//   - process renaming (permuting the process indices), and
//   - event relabeling (re-building the history along any linear
//     extension of the program order, which permutes the dense event
//     ids),
//
// and every classification must respect the Fig. 1 implication
// lattice (VerifyImplications returns nothing). These are the
// oracle-free counterparts of the differential tests: they need no
// reference implementation, only symmetry.

// classifyOrFail classifies with the default options.
func classifyOrFail(t *testing.T, h *history.History, name string) Classification {
	t.Helper()
	cl, err := Classify(context.Background(), h, Options{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if bad := VerifyImplications(cl); len(bad) > 0 {
		t.Fatalf("%s: implication lattice violated: %v (classification %v)", name, bad, cl)
	}
	return cl
}

func sameClassification(t *testing.T, name string, a, b Classification) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: criteria sets differ: %v vs %v", name, a, b)
	}
	for c, v := range a {
		w, ok := b[c]
		if !ok || v != w {
			t.Fatalf("%s: %v: %v vs %v\nbase:    %v\nvariant: %v", name, c, v, w, a, b)
		}
	}
}

// mapOps rebuilds the history with every operation rewritten by f,
// preserving processes, program order, event ids and ω flags.
func mapOps(h *history.History, f func(spec.Operation) spec.Operation) *history.History {
	b := history.NewBuilder(h.ADT)
	for _, ev := range h.Events {
		if ev.Omega {
			b.AppendOmega(ev.Proc, f(ev.Op))
		} else {
			b.Append(ev.Proc, f(ev.Op))
		}
	}
	return b.Build()
}

// relabelValues applies a permutation of the positive value alphabet
// to every input argument and output value. 0 is fixed: it is the
// ADTs' structural default (initial reads), not a data value.
func relabelValues(h *history.History, perm map[int]int) *history.History {
	mapv := func(v int) int {
		if w, ok := perm[v]; ok {
			return w
		}
		return v
	}
	return mapOps(h, func(op spec.Operation) spec.Operation {
		in := op.In
		if len(in.Args) > 0 {
			args := make([]int, len(in.Args))
			for i, v := range in.Args {
				args[i] = mapv(v)
			}
			in = spec.NewInput(in.Method, args...)
		}
		out := op.Out
		if !out.Bot && len(out.Vals) > 0 {
			vals := make([]int, len(out.Vals))
			for i, v := range out.Vals {
				vals[i] = mapv(v)
			}
			out = spec.Output{Vals: vals}
		}
		op2 := spec.NewOp(in, out)
		if op.Hidden {
			op2 = op2.Hide()
		}
		return op2
	})
}

// renameProcesses rebuilds the history appending the processes in
// permuted order (process indices and event ids both change).
func renameProcesses(h *history.History, perm []int) *history.History {
	b := history.NewBuilder(h.ADT)
	for newP, oldP := range perm {
		for _, id := range h.Processes()[oldP] {
			ev := h.Events[id]
			if ev.Omega {
				b.AppendOmega(newP, ev.Op)
			} else {
				b.Append(newP, ev.Op)
			}
		}
	}
	return b.Build()
}

// relabelEvents rebuilds the history along a random linear extension
// of the program order: processes keep their identities, but the dense
// event ids are permuted.
func relabelEvents(h *history.History, r *rand.Rand) *history.History {
	b := history.NewBuilder(h.ADT)
	next := make([]int, len(h.Processes()))
	for {
		var ready []int
		for p, evs := range h.Processes() {
			if next[p] < len(evs) {
				ready = append(ready, p)
			}
		}
		if len(ready) == 0 {
			break
		}
		p := ready[r.Intn(len(ready))]
		ev := h.Events[h.Processes()[p][next[p]]]
		if ev.Omega {
			b.AppendOmega(p, ev.Op)
		} else {
			b.Append(p, ev.Op)
		}
		next[p]++
	}
	return b.Build()
}

// dataIndependent reports whether value relabeling is
// meaning-preserving for the ADT. Counter outputs are counts
// (arithmetic, not opaque data), so it is excluded.
func dataIndependent(t spec.ADT) bool {
	return t.Name() != "Counter"
}

func TestMetamorphicClassification(t *testing.T) {
	rounds := 120
	if testing.Short() {
		rounds = 30
	}
	r := rand.New(rand.NewSource(3141))
	perms3 := [][3]int{{1, 2, 3}, {2, 1, 3}, {3, 2, 1}, {1, 3, 2}, {2, 3, 1}, {3, 1, 2}}
	for i := 0; i < rounds; i++ {
		h := randomHistory(r)
		name := fmt.Sprintf("random[%d] %s", i, h.ADT.Name())
		base := classifyOrFail(t, h, name)

		if dataIndependent(h.ADT) {
			p := perms3[r.Intn(len(perms3))]
			perm := map[int]int{1: p[0], 2: p[1], 3: p[2]}
			hv := relabelValues(h, perm)
			sameClassification(t, name+" value-relabeled", base, classifyOrFail(t, hv, name+" value-relabeled"))
		}

		nproc := len(h.Processes())
		pperm := r.Perm(nproc)
		hp := renameProcesses(h, pperm)
		sameClassification(t, name+" proc-renamed", base, classifyOrFail(t, hp, name+" proc-renamed"))

		he := relabelEvents(h, r)
		sameClassification(t, name+" event-relabeled", base, classifyOrFail(t, he, name+" event-relabeled"))
	}
}

// TestMetamorphicParseShuffle re-parses each history from its own
// textual rendering with the process lines shuffled: the file-level
// counterpart of process renaming, additionally covering the
// Parse/String round trip.
func TestMetamorphicParseShuffle(t *testing.T) {
	rounds := 60
	if testing.Short() {
		rounds = 15
	}
	r := rand.New(rand.NewSource(2718))
	for i := 0; i < rounds; i++ {
		h := randomHistory(r)
		name := fmt.Sprintf("random[%d] %s", i, h.ADT.Name())
		base := classifyOrFail(t, h, name)

		lines := strings.Split(strings.TrimSpace(h.String()), "\n")
		header, procLines := lines[0], lines[1:]
		r.Shuffle(len(procLines), func(a, b int) {
			procLines[a], procLines[b] = procLines[b], procLines[a]
		})
		h2, err := history.Parse(header + "\n" + strings.Join(procLines, "\n"))
		if err != nil {
			t.Fatalf("%s: re-parse: %v\n%s", name, err, h.String())
		}
		sameClassification(t, name+" line-shuffled", base, classifyOrFail(t, h2, name+" line-shuffled"))
	}
}

// TestMetamorphicFig3 applies the same relations to the paper's own
// histories (and checks the lattice on each), so the properties are
// exercised on the hand-constructed corpus too, not only on generator
// output.
func TestMetamorphicFig3(t *testing.T) {
	r := rand.New(rand.NewSource(1618))
	for _, text := range fig3Texts {
		h := history.MustParse(text)
		name := strings.SplitN(text, "\n", 2)[0]
		base := classifyOrFail(t, h, name)
		if dataIndependent(h.ADT) {
			hv := relabelValues(h, map[int]int{1: 3, 2: 1, 3: 2})
			sameClassification(t, name+" value-relabeled", base, classifyOrFail(t, hv, name))
		}
		hp := renameProcesses(h, []int{1, 0})
		sameClassification(t, name+" proc-renamed", base, classifyOrFail(t, hp, name))
		he := relabelEvents(h, r)
		sameClassification(t, name+" event-relabeled", base, classifyOrFail(t, he, name))
	}
}

// adtNameRoundTrip guards the String→Parse bridge the shuffle test
// relies on for every ADT the random generator emits.
func TestDiffADTNamesParse(t *testing.T) {
	for _, a := range diffADTs {
		if _, err := adt.Lookup(a.Name()); err != nil {
			t.Errorf("adt.Lookup(%q): %v", a.Name(), err)
		}
	}
}
