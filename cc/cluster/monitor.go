package cluster

import (
	"context"
	"sync"
	"time"

	"github.com/paper-repro/ccbm/cc"
	"github.com/paper-repro/ccbm/cc/checker"
	"github.com/paper-repro/ccbm/cc/cluster/wire"
)

// DefaultWindowOps is the default size of a sampled object's checked
// window. The monitor's DPOR-style pruned searches keep exact checking
// tractable at this size; it was 24 when the monitor ran the
// exhaustive searches.
const DefaultWindowOps = 40

// MonitorConfig tunes the online consistency monitor. The monitor
// checks exactly the criterion the cluster claims, one window at a
// time, with the pruned searches; its one limit is a node budget.
type MonitorConfig struct {
	// Disable turns the monitor off entirely.
	Disable bool
	// SampleEvery samples one in N created objects (1 = every object);
	// default 4.
	SampleEvery int
	// WindowOps is the number of operations a sampled object's checked
	// window holds; default DefaultWindowOps. Windows much larger than
	// this make the exact checkers the bottleneck even with pruning.
	WindowOps int
	// Grace is how long a full window keeps accepting the operations
	// that were already in flight at its cutoff; default 250ms.
	Grace time.Duration
	// Budget bounds each check's search nodes (0 = checker.DefaultBudget).
	// A window that needs more is reported exhausted with cause budget,
	// which depends on the window alone: ccheck -max-nodes reproduces it.
	Budget int
	// MaxWindowSessions caps the distinct sessions admitted into one
	// sampled window (default 3; -1 disables the cap). The exact
	// checkers' cost grows with cross-session interleavings, so a
	// window touched by a wide fan-in of sessions can exhaust any
	// budget. Over-cap sessions are weakened, never mangled: their
	// updates are recorded as hidden operations on their own proc —
	// true program order and state effects stay, and a hidden output
	// needs no justification — and their queries are skipped entirely.
	// Both are pure weakenings of the recorded fragment, so the cap
	// can never introduce a spurious violation, and a window that was
	// satisfied uncapped stays satisfied capped.
	MaxWindowSessions int
}

func (m *MonitorConfig) fill() {
	if m.SampleEvery <= 0 {
		m.SampleEvery = 4
	}
	if m.WindowOps <= 0 {
		m.WindowOps = DefaultWindowOps
	}
	if m.Grace <= 0 {
		m.Grace = 250 * time.Millisecond
	}
	if m.MaxWindowSessions == 0 {
		m.MaxWindowSessions = 3
	}
}

// Verdict is the outcome of one criterion on one sampled window. Its
// definition lives in cc/cluster/wire (it is also the NDJSON line
// type of the monitor stream endpoint); this alias keeps the Go API
// where the monitor is.
type Verdict = wire.Verdict

// Summary aggregates the monitor's output so far (wire form:
// wire.MonitorSummary). Exhausted counts verdict-less outcomes whose
// search ran out of its node budget; Errors counts hard checker
// failures. The two are different signals: many Exhausted means the
// windows are too expensive, any Errors means the monitor hookup is
// broken.
type Summary = wire.MonitorSummary

// Monitor spot-checks the criterion the cluster claims, online: a
// sample of objects is designated at creation, each sampled object's
// first WindowOps operations are recorded as a timed history (proc =
// session id), and every completed window streams into a
// checker.Classifier running the claimed criterion.
//
// The contract of a sampled verdict, precisely:
//
//   - A window is a causally closed fragment: an operation enters it
//     only if it was invoked (updates) or completed (queries) before
//     the window's cutoff, so every update a recorded query observed
//     is itself in the window (an update observed by a query with
//     res ≤ cutoff was invoked before that query completed).
//   - "Satisfied" therefore means: this fragment of the live execution
//     admits a witness for the criterion. It is evidence, not proof,
//     for the run as a whole — unsampled objects, operations after the
//     window, and exhausted searches are unchecked.
//   - "Not satisfied" on a clean (non-exhausted) verdict is a real
//     consistency violation of the recorded fragment, with one
//     caveat: an update whose session stalled longer than Grace after
//     the cutoff may be missing from the window, which can manifest as
//     a spurious violation. Treat violations as alarms to investigate,
//     not as proof by themselves.
//   - Budget-exhausted verdicts say nothing either way (the exact
//     checkers are exponential in the worst case).
//   - EC is near-vacuous on sampled windows: the EC checker constrains
//     only ω-flagged (infinitely repeated) reads, which live windows
//     never contain, so an EC cluster's verdicts are trivially
//     satisfied. Monitoring earns its keep on CC, CCv and PC; for EC
//     it is a liveness signal only (windows flow end to end).
type Monitor struct {
	cfg      MonitorConfig
	disabled bool

	in     chan checker.Item
	cancel context.CancelFunc
	done   chan struct{}

	mu            sync.Mutex
	created       int // objects seen by maybeSample
	recs          []*objRecorder
	verdicts      []Verdict
	subs          []chan Verdict
	ended         bool // collect finished; no further verdicts will appear
	submitted     int
	dropped       int
	streamDropped int // verdicts stalled stream subscribers missed
	cappedOps     int // ops weakened/skipped by MaxWindowSessions
	closed        bool
	seq           int
}

func newMonitor(cfg MonitorConfig, criterion string) *Monitor {
	if cfg.Disable {
		return &Monitor{disabled: true, done: make(chan struct{})}
	}
	cfg.fill()
	m := &Monitor{
		cfg:  cfg,
		in:   make(chan checker.Item, 64),
		done: make(chan struct{}),
	}
	// One check at a time keeps the monitor off the serving path's
	// cores.
	cl := checker.NewClassifier(
		checker.WithCriteria(criterion),
		checker.WithWorkers(1),
		checker.WithPruning(true),
		checker.WithBudget(cfg.Budget),
	)
	ctx, cancel := context.WithCancel(context.Background())
	m.cancel = cancel
	out, err := cl.Stream(ctx, m.in)
	if err != nil {
		// Unknown criterion name: degrade to disabled rather than take
		// the serving path down.
		cancel()
		m.disabled = true
		close(m.done)
		return m
	}
	go m.collect(out)
	return m
}

// collect folds classifier results into verdicts and fans them out to
// stream subscribers.
func (m *Monitor) collect(out <-chan checker.ItemResult) {
	defer close(m.done)
	for r := range out {
		m.mu.Lock()
		for name, res := range r.Results { // the one criterion checked
			v := Verdict{
				Object:    r.Item.Name,
				Criterion: name,
				Satisfied: res.Satisfied,
				Exhausted: res.Exhausted,
				Ops:       r.Item.H.N(),
				Sessions:  len(r.Item.H.Processes()),
				Explored:  res.Explored,
				ElapsedMS: float64(res.Elapsed) / float64(time.Millisecond),
			}
			if res.Err != nil && res.Exhausted == "" {
				v.Err = res.Err.Error()
			}
			m.verdicts = append(m.verdicts, v)
			for _, ch := range m.subs {
				select {
				case ch <- v:
				default:
					// A stalled subscriber misses verdicts rather than ever
					// blocking the monitor — but the miss is counted, so a
					// consumer asserting on the stream can detect it was
					// incomplete instead of reporting clean-by-omission.
					m.streamDropped++
				}
			}
		}
		m.mu.Unlock()
	}
	m.mu.Lock()
	m.ended = true
	for _, ch := range m.subs {
		close(ch)
	}
	m.subs = nil
	m.mu.Unlock()
}

// Subscribe returns a channel that replays every verdict produced so
// far and then streams new ones live, plus a cancel function
// releasing the subscription (after which the channel is closed). The
// channel is also closed when the monitor closes. Sends to a
// subscriber that stops draining are dropped rather than ever
// blocking the monitor; the buffer absorbs bursts. A disabled monitor
// returns an already-closed channel.
func (m *Monitor) Subscribe() (<-chan Verdict, func()) {
	if m.disabled {
		ch := make(chan Verdict)
		close(ch)
		return ch, func() {}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ch := make(chan Verdict, len(m.verdicts)+256)
	for _, v := range m.verdicts {
		ch <- v
	}
	if m.ended {
		close(ch)
		return ch, func() {}
	}
	m.subs = append(m.subs, ch)
	return ch, func() { m.unsubscribe(ch) }
}

// unsubscribe removes one subscriber; idempotent (collect's own close
// at stream end removes the whole list first).
func (m *Monitor) unsubscribe(ch chan Verdict) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, s := range m.subs {
		if s == ch {
			m.subs = append(m.subs[:i], m.subs[i+1:]...)
			close(ch)
			return
		}
	}
}

// maybeSample decides at creation whether to record the object;
// non-nil means sampled.
func (m *Monitor) maybeSample(name string, t cc.ADT) *objRecorder {
	if m.disabled {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	i := m.created
	m.created++
	if i%m.cfg.SampleEvery != 0 {
		return nil
	}
	rec := &objRecorder{m: m, obj: name, t: t}
	m.recs = append(m.recs, rec)
	return rec
}

// submit hands a finalized window to the classifier without ever
// blocking the serving path: a full input buffer drops the window.
func (m *Monitor) submit(obj string, t cc.ADT, ops []checker.TimedOp) {
	h := checker.TimedToHistory(t, ops)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.seq++
	item := checker.Item{Index: m.seq, Name: obj, H: h}
	select {
	case m.in <- item:
		m.submitted++
	default:
		m.dropped++
	}
	m.mu.Unlock()
}

// Verdicts returns a snapshot of every verdict produced so far.
func (m *Monitor) Verdicts() []Verdict {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Verdict(nil), m.verdicts...)
}

// Summary aggregates the verdicts produced so far.
func (m *Monitor) Summary() Summary {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Summary{
		SampledObjects:   len(m.recs),
		WindowsSubmitted: m.submitted,
		WindowsDropped:   m.dropped,
		StreamDropped:    m.streamDropped,
		CappedOps:        m.cappedOps,
		Verdicts:         len(m.verdicts),
	}
	for _, v := range m.verdicts {
		switch {
		case v.Err != "":
			s.Errors++
		case v.Exhausted != "":
			s.Exhausted++
		case v.Satisfied:
			s.Satisfied++
		default:
			s.Violations = append(s.Violations, v)
		}
	}
	return s
}

// Close finalizes open windows (submitting those with at least two
// operations), stops the classifier input, and waits for in-flight
// checks to produce their verdicts.
func (m *Monitor) Close() {
	if m.disabled {
		return
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	recs := append([]*objRecorder(nil), m.recs...)
	m.mu.Unlock()
	for _, r := range recs {
		r.finalize(true)
	}
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	close(m.in)
	<-m.done
}

// noteCapped counts one operation weakened or skipped by the
// MaxWindowSessions cap. (Safe under an objRecorder's mu: the only
// lock order is recorder → monitor, never the reverse.)
func (m *Monitor) noteCapped() {
	m.mu.Lock()
	m.cappedOps++
	m.mu.Unlock()
}

// objRecorder records one sampled object's window.
type objRecorder struct {
	m   *Monitor
	obj string
	t   cc.ADT

	mu       sync.Mutex
	ops      []checker.TimedOp
	sessions map[int]struct{} // sessions admitted in full (visible ops)
	filled   bool             // the window reached WindowOps; cutoff is final
	cutoff   float64          // meaningful once filled
	done     bool
}

// record appends one completed operation. Once the window has filled,
// only operations already in flight at the cutoff are accepted —
// updates by invocation time, queries by completion time — which keeps
// the window causally closed (see Monitor). A window admits at most
// MaxWindowSessions distinct sessions in full; later sessions are
// weakened (updates hidden, queries skipped) so wide fan-in cannot
// blow up the check — see the MonitorConfig field for why this is a
// sound weakening.
func (r *objRecorder) record(session int, op cc.Operation, inv, res float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return
	}
	if max := r.m.cfg.MaxWindowSessions; max > 0 {
		if r.sessions == nil {
			r.sessions = make(map[int]struct{}, max)
		}
		if _, in := r.sessions[session]; !in {
			if len(r.sessions) < max {
				r.sessions[session] = struct{}{}
			} else if r.t.IsUpdate(op.In) {
				// Over-cap update: keep its state effect and program
				// order on its true proc, but hide its output (Def. 2) —
				// no obligation added, no observation lost.
				op = cc.HiddenOp(op.In)
				r.m.noteCapped()
			} else {
				// Over-cap query: dropping it only removes obligations.
				r.m.noteCapped()
				return
			}
		}
	}
	if r.filled {
		isUpdate := r.t.IsUpdate(op.In)
		if (isUpdate && inv > r.cutoff) || (!isUpdate && res > r.cutoff) {
			return
		}
		if isUpdate && res > r.cutoff {
			// The update belongs to the window (invoked before the
			// cutoff) but completed after it, so its recorded output may
			// reference updates the window excludes (e.g. a pop that
			// returned a post-cutoff push). Record it hidden (Def. 2):
			// its state effect stays, its output needs no justification.
			// Its replayed effect can only diverge from reality past the
			// point where an excluded update was applied — and no
			// admitted query observes that region (any such query would
			// have res > cutoff), so the window stays sound.
			op = cc.HiddenOp(op.In)
		}
	}
	r.ops = append(r.ops, checker.TimedOp{Proc: session, Op: op, Inv: inv, Res: res})
	if !r.filled && len(r.ops) >= r.m.cfg.WindowOps {
		// The window fills exactly once; a boolean, not a cutoff
		// sentinel, records it (a window whose recorded res times are
		// all zero — e.g. a clock starting at the first operation —
		// must still close, and must not re-arm the grace timer on
		// every later record).
		r.filled = true
		// The cutoff must cover every operation already recorded: record
		// calls can land out of res order (a session may be descheduled
		// between computing res and acquiring the lock), and a cutoff
		// below a recorded query's res would re-admit the closure race
		// the rule exists to prevent.
		for _, o := range r.ops {
			if o.Res > r.cutoff {
				r.cutoff = o.Res
			}
		}
		time.AfterFunc(r.m.cfg.Grace, func() { r.finalize(false) })
	}
}

// finalize closes the window and submits it. force (at monitor Close)
// submits even a half-filled window, as long as it has two operations.
func (r *objRecorder) finalize(force bool) {
	r.mu.Lock()
	if r.done || (!r.filled && !force) {
		r.mu.Unlock()
		return
	}
	r.done = true
	ops := r.ops
	r.mu.Unlock()
	if len(ops) < 2 {
		return
	}
	r.m.submit(r.obj, r.t, ops)
}
