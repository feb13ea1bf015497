// Package paperfig encodes the paper's figures as executable fixtures:
// the nine example histories of Fig. 3 with their caption claims, and
// the abstract 12-event history of Fig. 2 used for the time-zone
// illustration. Tests, benchmarks and cmd/ccexperiments all consume
// these fixtures, so the reproduction of the paper's "evaluation" is
// centralized here.
//
// Source fidelity: the HAL text extraction of Fig. 3 is partially
// garbled (sub-figure (b)'s labels disagree between the figure and the
// prose of Sec. 3.2, and (g) is only sketched). Each fixture records
// which reading was encoded. Histories whose caption claims rely on
// the infinite-execution interpretation (cofiniteness of causal
// orders, Def. 7) carry ω flags on their final reads; the experiment
// battery reports classifications under both the finite and ω readings.
package paperfig

import (
	"context"
	"fmt"

	"github.com/paper-repro/ccbm/internal/check"
	"github.com/paper-repro/ccbm/internal/history"
)

// Claim is a caption claim: the history satisfies (or not) a criterion.
type Claim struct {
	Criterion check.Criterion
	Holds     bool
	// OmegaReading marks claims that only hold under the infinite
	// (ω-flagged) interpretation of the drawn history.
	OmegaReading bool
}

// Fixture is one sub-figure of Fig. 3.
type Fixture struct {
	Name    string // e.g. "3a"
	Caption string // the paper's caption, e.g. "W2: CCv, not PC"
	Text    string // history in the parser's format (ω flags included)
	Claims  []Claim
	Notes   string // reconstruction notes for garbled sub-figures
}

// History parses the fixture's history (panics only on programmer
// error: the fixtures are compile-time constants exercised by tests).
func (f Fixture) History() *history.History { return history.MustParse(f.Text) }

// FiniteHistory returns the fixture's history with ω flags stripped —
// the literal finite prefix as drawn.
func (f Fixture) FiniteHistory() *history.History { return f.History().StripOmega() }

// Fig3 returns the nine sub-figures of Fig. 3.
func Fig3() []Fixture {
	return []Fixture{
		{
			Name:    "3a",
			Caption: "W2: CCv, not PC",
			Text: `adt: W2
p0: w(1) r/(0,1) r/(1,2)*
p1: w(2) r/(0,2) r/(1,2)*`,
			Claims: []Claim{
				{check.CritCCv, true, false},
				{check.CritPC, false, false},
			},
			Notes: "Prose (Sec. 3.2) gives all six linearizations; the final reads repeat forever (the convergence discussion), hence ω flags.",
		},
		{
			Name:    "3b",
			Caption: "W2: PC, not WCC",
			Text: `adt: W2
p0: w(1) r/(0,1)*
p1: w(2) r/(0,2)*`,
			Claims: []Claim{
				// PC holds for the literal finite prefix; the WCC
				// refutation needs cofiniteness, i.e. the ω reading
				// (on the ω reading PC fails too — the figure's two
				// claims use the two readings).
				{check.CritPC, true, false},
				{check.CritWCC, false, true},
			},
			Notes: "Figure text garbled (prose mentions r/(2,1), figure shows r/(0,2)); encoded as the figure shows. Without ω flags every finite history whose processes are locally consistent is WCC (causal order = program order), so the caption's 'not WCC' is the ω reading.",
		},
		{
			Name:    "3c",
			Caption: "W2: CC, not CCv",
			Text: `adt: W2
p0: w(1) r/(2,1)
p1: w(2) r/(1,2)`,
			Claims: []Claim{
				{check.CritCC, true, false},
				{check.CritCCv, false, false},
			},
		},
		{
			Name:    "3d",
			Caption: "W2: SC",
			Text: `adt: W2
p0: w(1) r/(0,1)
p1: w(2) r/(1,2)`,
			Claims: []Claim{
				{check.CritSC, true, false},
			},
		},
		{
			Name:    "3e",
			Caption: "Q: WCC and PC, not CC",
			Text: `adt: Queue
p0: push(1) pop/1 pop/1 push(3)
p1: push(2) pop/3 push(1)`,
			Claims: []Claim{
				{check.CritWCC, true, false},
				{check.CritPC, true, false},
				{check.CritCC, false, false},
			},
			Notes: "Events recovered from the prose's two pipelined linearizations.",
		},
		{
			Name:    "3f",
			Caption: "Q: CC, not SC",
			Text: `adt: Queue
p0: pop/1 pop/_
p1: push(1) push(2) pop/1 pop/_`,
			Claims: []Claim{
				{check.CritCC, true, false},
				{check.CritSC, false, false},
			},
			Notes: "pop/_ is pop on an empty queue returning ⊥. The history shows CC neither guarantees existence (2 is never popped) nor unicity (1 is popped twice).",
		},
		{
			Name:    "3g",
			Caption: "Q': CC, not SC",
			Text: `adt: Queue2
p0: hd/1 rh(1) hd/2 rh(2)
p1: push(1) push(2) hd/1 rh(1) hd/2 rh(2)`,
			Claims: []Claim{
				{check.CritCC, true, false},
			},
			Notes: "Reconstruction from the garbled figure; the drawn events also admit a sequentially consistent linearization (rh(1) is a no-op when the head is 2), so the caption's 'not SC' is not checkable on this reconstruction and is omitted from the claims. The sub-figure's point — hd/rh never loses elements — is exercised by the jobqueue example and TestFig3gNoLostValues.",
		},
		{
			Name:    "3h",
			Caption: "M[a-e]: CCv, not CC",
			Text: `adt: M[a-e]
p0: wa(1) wc(2) wd(1) rb/0 re/1 rc/3
p1: wb(1) wc(3) we(1) ra/0 rd/1 rc/3`,
			Claims: []Claim{
				{check.CritCCv, true, false},
				{check.CritCC, false, false},
			},
		},
		{
			Name:    "3i",
			Caption: "M[a-d]: CM, not CC",
			Text: `adt: M[a-d]
p0: wa(1) wa(2) wb(3) rd/3 rc/1 wa(1)
p1: wc(1) wc(2) wd(3) rb/3 ra/1 wc(1)`,
			Claims: []Claim{
				{check.CritCM, true, false},
				{check.CritCC, false, false},
			},
			Notes: "The duplicated writes (wa(1) twice on p0, wc(1) twice on p1) let a writes-into order bind each read to the wrong write (Sec. 4.2): causal memory accepts the history while causal consistency rejects it.",
		},
	}
}

// VerifyClaims checks every caption claim of the fixture against the
// exact checkers and returns the first mismatch (or checker error) as
// a non-nil error. opt flows through to the checkers, so callers can
// pick budgets and pruning. It is the pass/fail claim oracle used by the
// tests; tools that need each verdict individually (cmd/ccexperiments'
// E3 table, cmd/ccbench's timing loop) iterate Claims themselves.
func (f Fixture) VerifyClaims(opt check.Options) error {
	return f.VerifyClaimsContext(context.Background(), opt)
}

// VerifyClaimsContext is VerifyClaims under a caller-controlled
// context: cancellation or deadline expiry aborts the claim loop with
// ctx.Err().
func (f Fixture) VerifyClaimsContext(ctx context.Context, opt check.Options) error {
	omega := f.History()
	finite := f.FiniteHistory()
	for _, cl := range f.Claims {
		h := finite
		if cl.OmegaReading {
			h = omega
		}
		got, _, err := check.Check(ctx, cl.Criterion, h, opt)
		if err != nil {
			return fmt.Errorf("fig %s: %v: %w", f.Name, cl.Criterion, err)
		}
		if got != cl.Holds {
			return fmt.Errorf("fig %s: %v = %v, caption claims %v", f.Name, cl.Criterion, got, cl.Holds)
		}
	}
	return nil
}

// Fig3ByName returns the named fixture.
func Fig3ByName(name string) (Fixture, bool) {
	for _, f := range Fig3() {
		if f.Name == name {
			return f, true
		}
	}
	return Fixture{}, false
}

// Fig2History returns a 12-event, 3-process history in the shape of
// Fig. 2 (σ1..σ12 laid out three processes by four events), over a
// 3-register memory so that it is concrete. The causal order used by
// the time-zone demonstration adds the two message-style edges that the
// figure draws between processes around the "present" event σ7.
func Fig2History() (*history.History, [][2]int) {
	h := history.MustParse(`adt: M[x,y,z]
p0: wx(2) wx(6) rx/9 wx(12)
p1: wy(3) ry/5 wy(7) ry/10
p2: wz(1) rz/4 wz(8) wz(11)`)
	// Extra causal edges (beyond program order): p2's σ4 → p1's σ7 and
	// p1's σ5 → p0's σ9-slot event, mirroring the figure's diagonals.
	// Events are numbered row-major: p0 = 0..3, p1 = 4..7, p2 = 8..11.
	edges := [][2]int{{9, 6}, {5, 2}, {1, 7}, {6, 3}}
	return h, edges
}
