package check

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/paper-repro/ccbm/internal/adt"
	"github.com/paper-repro/ccbm/internal/history"
	"github.com/paper-repro/ccbm/internal/spec"
)

// procMajor is the numbering TimedToHistory used before it numbered
// events by invocation time: all of p0's ops by Inv, then p1's, and so
// on. The tests below keep it as the reference for program order.
func procMajor(t spec.ADT, ops []TimedOp) *history.History {
	idx := make([]int, len(ops))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if ops[idx[a]].Proc != ops[idx[b]].Proc {
			return ops[idx[a]].Proc < ops[idx[b]].Proc
		}
		return ops[idx[a]].Inv < ops[idx[b]].Inv
	})
	b := history.NewBuilder(t)
	for _, i := range idx {
		b.Append(ops[i].Proc, ops[i].Op)
	}
	return b.Build()
}

// procOps lists each process's op sequence, sorted, so histories that
// number their processes differently compare equal when every process
// kept its program order.
func procOps(h *history.History) []string {
	var out []string
	for _, ids := range h.Processes() {
		out = append(out, fmt.Sprint(h.Ops(ids)))
	}
	sort.Strings(out)
	return out
}

// TestTimedToHistoryNumbersByInvocation: event ids follow Inv, ties
// keep their record order, and every process keeps exactly the op
// sequence the proc-major numbering gave it.
func TestTimedToHistoryNumbersByInvocation(t *testing.T) {
	ops := []TimedOp{
		top(2, w(5), 4, 5),
		top(0, w(1), 1, 2),
		top(1, rd(1), 3, 4),
		top(0, rd(2), 3, 6), // ties p1's Inv 3, recorded after it
		top(2, w(4), 0, 1),
		top(1, w(2), 2, 3),
		top(0, w(3), 4, 7), // ties p2's Inv 4, recorded after it
	}
	h := TimedToHistory(adt.Register{}, ops)
	// Ids by Inv; the ties at 3 and 4 in record order.
	want := []int{4, 1, 5, 2, 3, 0, 6}
	proc := map[int]int{} // recorded proc -> history proc
	for id, e := range h.Events {
		o := ops[want[id]]
		if e.Op.String() != o.Op.String() {
			t.Fatalf("event %d is %s, want ops[%d] = %v", id, e.Op, want[id], o)
		}
		if p, ok := proc[o.Proc]; ok && p != e.Proc {
			t.Fatalf("event %d: recorded p%d split across history procs %d and %d", id, o.Proc, p, e.Proc)
		}
		proc[o.Proc] = e.Proc
	}
	if got, old := procOps(h), procOps(procMajor(adt.Register{}, ops)); !reflect.DeepEqual(got, old) {
		t.Fatalf("program order changed:\n got %v\nwant %v", got, old)
	}
}

// counterRun records a seeded run of a causal Counter: every step one
// random session invokes inc (80%) or get, and each replica then
// applies its oldest causally ready remote inc. Ops do not overlap in
// time, and a get returns the incs its replica applied, so the window
// is causally consistent by construction.
func counterRun(seed int64, sessions, total int) []TimedOp {
	type msg struct {
		origin, seq int
		deps        []int
	}
	rng := rand.New(rand.NewSource(seed))
	vc := make([][]int, sessions) // per replica: incs applied per origin
	for i := range vc {
		vc[i] = make([]int, sessions)
	}
	pending := make([][]msg, sessions)
	sum := func(v []int) (s int) {
		for _, x := range v {
			s += x
		}
		return s
	}
	ops := make([]TimedOp, 0, total)
	for i := 0; i < total; i++ {
		p := rng.Intn(sessions)
		inv := float64(i)
		if rng.Intn(5) < 4 {
			vc[p][p]++
			m := msg{origin: p, seq: vc[p][p], deps: append([]int(nil), vc[p]...)}
			for q := range pending {
				if q != p {
					pending[q] = append(pending[q], m)
				}
			}
			ops = append(ops, top(p, spec.NewOp(spec.NewInput("inc"), spec.Bot), inv, inv+0.5))
		} else {
			ops = append(ops, top(p, spec.NewOp(spec.NewInput("get"), spec.IntOutput(sum(vc[p]))), inv, inv+0.5))
		}
		for q := range pending {
			for j, m := range pending[q] {
				ready := m.seq == vc[q][m.origin]+1
				for k, d := range m.deps {
					ready = ready && (k == m.origin || d <= vc[q][k])
				}
				if ready {
					vc[q][m.origin]++
					pending[q] = append(pending[q][:j], pending[q][j+1:]...)
					break
				}
			}
		}
	}
	return ops
}

// TestTimedToHistoryWindowNodes: on 50 seeded 40-op Counter windows
// per session count, numbering by invocation time leaves every CC, CCv
// and PC verdict unchanged, and the pruned searches explore the pinned
// node counts. The proc-major counts are pinned beside them: CCv and PC
// explore 1.5-15x fewer nodes by Inv, CC about 8% fewer on two
// sessions and 7% more on three.
func TestTimedToHistoryWindowNodes(t *testing.T) {
	want := map[string][2]int64{ // criterion/sessions: {by Inv, proc-major}
		"CC/2": {159391, 173871}, "CCv/2": {5172, 7878}, "PC/2": {4000, 14699},
		"CC/3": {1778744, 1655300}, "CCv/3": {8562, 20271}, "PC/3": {6000, 90367},
	}
	crits := []Criterion{CritCC, CritCCv, CritPC}
	for _, sessions := range []int{2, 3} {
		var nodes [2][3]int64
		for seed := int64(1); seed <= 50; seed++ {
			ops := counterRun(seed, sessions, 40)
			for ci, c := range crits {
				var verdicts [2]bool
				for k, h := range []*history.History{TimedToHistory(adt.Counter{}, ops), procMajor(adt.Counter{}, ops)} {
					var st Stats
					ok, _, err := Check(context.Background(), c, h, Options{Prune: PruneAll(), Stats: &st})
					if err != nil {
						t.Fatalf("seed %d %v: %v", seed, c, err)
					}
					verdicts[k] = ok
					nodes[k][ci] += st.Nodes
				}
				if verdicts[0] != verdicts[1] {
					t.Errorf("seed %d, %d sessions, %v: verdict %v by Inv, %v proc-major", seed, sessions, c, verdicts[0], verdicts[1])
				}
			}
		}
		for ci, c := range crits {
			key := fmt.Sprintf("%v/%d", c, sessions)
			if got := [2]int64{nodes[0][ci], nodes[1][ci]}; got != want[key] {
				t.Errorf("%s: explored %v nodes {by Inv, proc-major}, want %v", key, got, want[key])
			}
		}
	}
}
