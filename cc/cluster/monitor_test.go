package cluster

import (
	"context"
	"testing"
	"time"

	"github.com/paper-repro/ccbm/cc"
	"github.com/paper-repro/ccbm/cc/checker"
)

// Internal regression tests for the window-closing machinery: the
// "window filled" state must be a boolean set exactly once, not a
// cutoff-is-zero sentinel. Before the fix, a window whose recorded
// res times were all zero (a clock starting at the first operation)
// never engaged the grace filter, re-armed the grace timer on every
// later record, and was only ever submitted by Close's force path.

func monitorADT(t *testing.T) cc.ADT {
	t.Helper()
	a, err := cc.LookupADT("Register")
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func waitSubmitted(t *testing.T, m *Monitor, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		m.mu.Lock()
		got := m.submitted
		m.mu.Unlock()
		if got >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("window was never submitted")
}

// TestMonitorWindowClosesAtZeroRes: a window whose operations all
// carry res == 0 must still fill, pass its grace period and submit —
// without waiting for Close.
func TestMonitorWindowClosesAtZeroRes(t *testing.T) {
	m := newMonitor(MonitorConfig{SampleEvery: 1, WindowOps: 4, Grace: 10 * time.Millisecond}, "CC")
	defer m.Close()
	rec := m.maybeSample("obj", monitorADT(t))
	if rec == nil {
		t.Fatal("SampleEvery=1 did not sample")
	}
	w := cc.NewOp(cc.NewInput("w", 1), cc.Bot)
	for i := 0; i < 4; i++ {
		rec.record(0, w, 0, 0)
	}
	waitSubmitted(t, m, 1)
	rec.mu.Lock()
	filled, done := rec.filled, rec.done
	rec.mu.Unlock()
	if !filled || !done {
		t.Fatalf("recorder state after grace: filled=%v done=%v, want both", filled, done)
	}
}

// TestMonitorNoDuplicateWindowAtGraceBoundary: operations landing
// while the grace period runs keep len(ops) ≥ WindowOps true; the
// fill branch must not re-arm the grace timer for them, and the
// window must be submitted exactly once.
func TestMonitorNoDuplicateWindowAtGraceBoundary(t *testing.T) {
	m := newMonitor(MonitorConfig{SampleEvery: 1, WindowOps: 4, Grace: 30 * time.Millisecond}, "CC")
	rec := m.maybeSample("obj", monitorADT(t))
	w := cc.NewOp(cc.NewInput("w", 1), cc.Bot)
	for i := 0; i < 4; i++ {
		rec.record(0, w, 0, 0)
	}
	rec.mu.Lock()
	cutoff := rec.cutoff
	rec.mu.Unlock()
	// In-flight operations during grace (res ≤ cutoff ⇒ admitted).
	for i := 0; i < 6; i++ {
		rec.record(1, w, cutoff, cutoff)
		time.Sleep(time.Millisecond)
	}
	waitSubmitted(t, m, 1)
	// Give any (buggy) re-armed grace timers time to fire, then close.
	time.Sleep(60 * time.Millisecond)
	m.Close()
	sum := m.Summary()
	if sum.WindowsSubmitted != 1 {
		t.Fatalf("window submitted %d times, want exactly 1", sum.WindowsSubmitted)
	}
	if sum.Errors > 0 {
		t.Fatalf("monitor errors: %+v", sum)
	}
}

// TestMonitorSessionCapWeakensOverCapSessions pins the
// MaxWindowSessions semantics deterministically: the first cap
// distinct sessions are admitted in full; a later session's query is
// skipped (never recorded) and its update is recorded hidden on its
// true proc (program order and state effect stay, output obligation
// dropped). Both weakened ops are counted in Summary.CappedOps.
func TestMonitorSessionCapWeakensOverCapSessions(t *testing.T) {
	m := newMonitor(MonitorConfig{
		SampleEvery: 1, WindowOps: 32, Grace: 10 * time.Millisecond,
		MaxWindowSessions: 2,
	}, "CC")
	defer m.Close()
	rec := m.maybeSample("obj", monitorADT(t))
	w := cc.NewOp(cc.NewInput("w", 1), cc.Bot)
	r := cc.NewOp(cc.NewInput("r"), cc.IntOutput(1))

	rec.record(0, w, 1, 2) // admits session 0
	rec.record(1, w, 3, 4) // admits session 1
	rec.record(2, r, 5, 6) // over cap: query, skipped
	rec.record(2, w, 7, 8) // over cap: update, recorded hidden
	rec.record(0, r, 9, 10)

	type opView struct {
		proc   int
		hidden bool
		method string
	}
	rec.mu.Lock()
	var ops []opView
	for _, o := range rec.ops {
		ops = append(ops, opView{o.Proc, o.Op.Hidden, o.Op.In.Method})
	}
	rec.mu.Unlock()

	want := []opView{
		{0, false, "w"},
		{1, false, "w"},
		{2, true, "w"}, // over-cap update: true proc, hidden
		{0, false, "r"},
	}
	if len(ops) != len(want) {
		t.Fatalf("recorded %d ops %+v, want %d", len(ops), ops, len(want))
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("op %d = %+v, want %+v", i, ops[i], want[i])
		}
	}
	if got := m.Summary().CappedOps; got != 2 {
		t.Fatalf("CappedOps = %d, want 2 (one skipped query + one hidden update)", got)
	}
}

// TestMonitorSessionCapDisabled: MaxWindowSessions -1 admits every
// session in full (the pre-cap behavior).
func TestMonitorSessionCapDisabled(t *testing.T) {
	m := newMonitor(MonitorConfig{
		SampleEvery: 1, WindowOps: 32, Grace: 10 * time.Millisecond,
		MaxWindowSessions: -1,
	}, "CC")
	defer m.Close()
	rec := m.maybeSample("obj", monitorADT(t))
	w := cc.NewOp(cc.NewInput("w", 1), cc.Bot)
	for s := 0; s < 6; s++ {
		rec.record(s, w, float64(2*s), float64(2*s+1))
	}
	rec.mu.Lock()
	n := len(rec.ops)
	hidden := 0
	for _, o := range rec.ops {
		if o.Op.Hidden {
			hidden++
		}
	}
	rec.mu.Unlock()
	if n != 6 || hidden != 0 {
		t.Fatalf("uncapped recorder kept %d ops (%d hidden), want all 6 visible", n, hidden)
	}
	if got := m.Summary().CappedOps; got != 0 {
		t.Fatalf("CappedOps = %d, want 0 when the cap is disabled", got)
	}
}

// TestMonitorGraceCutoffCoversRecordedOps: the cutoff computed when
// the window fills must cover the maximum recorded res, even when the
// filling operation is not the latest one (out-of-order record calls).
func TestMonitorGraceCutoffCoversRecordedOps(t *testing.T) {
	m := newMonitor(MonitorConfig{SampleEvery: 1, WindowOps: 3, Grace: 10 * time.Millisecond}, "CC")
	defer m.Close()
	rec := m.maybeSample("obj", monitorADT(t))
	w := cc.NewOp(cc.NewInput("w", 1), cc.Bot)
	rec.record(0, w, 1, 2)
	rec.record(0, w, 3, 9) // latest res, recorded before the filling op
	rec.record(1, w, 4, 5) // fills the window
	rec.mu.Lock()
	cutoff, filled := rec.cutoff, rec.filled
	rec.mu.Unlock()
	if !filled {
		t.Fatal("window did not fill at WindowOps operations")
	}
	if cutoff != 9 {
		t.Fatalf("cutoff = %v, want the recorded max res 9", cutoff)
	}
}

// TestMonitorBudgetIsTheLimit: the node budget is the monitor's one
// limit, so a window that needs more nodes than Budget is exhausted
// with cause budget every time, whatever the host's load — the same
// outcome ccheck -max-nodes gives on the window.
func TestMonitorBudgetIsTheLimit(t *testing.T) {
	counter, err := cc.LookupADT("Counter")
	if err != nil {
		t.Fatal(err)
	}
	// Three sessions inc and get in turn; each get returns the incs
	// invoked before it, so the window is causally consistent.
	var ops []checker.TimedOp
	incs := 0
	for i := 0; i < 12; i++ {
		op := cc.NewOp(cc.NewInput("inc"), cc.Bot)
		if i%4 == 3 {
			op = cc.NewOp(cc.NewInput("get"), cc.IntOutput(incs))
		} else {
			incs++
		}
		ops = append(ops, checker.TimedOp{Proc: i % 3, Op: op, Inv: float64(i), Res: float64(i) + 0.5})
	}
	full, err := checker.Check(context.Background(), "CC", checker.TimedToHistory(counter, ops), checker.WithPruning(true))
	if err != nil || !full.Satisfied {
		t.Fatalf("unbudgeted check: %+v, %v; want satisfied", full, err)
	}
	budget := int(full.Explored / 2)
	if budget < 1 {
		t.Fatalf("window explores %d nodes; too few to halve", full.Explored)
	}

	const objects = 4
	m := newMonitor(MonitorConfig{SampleEvery: 1, WindowOps: len(ops), Budget: budget}, "CC")
	for o := 0; o < objects; o++ {
		rec := m.maybeSample(string(rune('a'+o)), counter)
		for _, op := range ops {
			rec.record(op.Proc, op.Op, op.Inv, op.Res)
		}
	}
	m.Close()
	vs := m.Verdicts()
	if len(vs) != objects {
		t.Fatalf("%d verdicts, want %d: %+v", len(vs), objects, vs)
	}
	for _, v := range vs {
		if v.Exhausted != checker.CauseBudget || v.Err != "" {
			t.Errorf("window %s: %+v, want exhausted with cause budget (budget %d of %d nodes)", v.Object, v, budget, full.Explored)
		}
	}
	if s := m.Summary(); s.Exhausted != objects {
		t.Fatalf("summary: %+v, want %d exhausted", s, objects)
	}
}
