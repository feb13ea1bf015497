package check

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/paper-repro/ccbm/internal/history"
)

// TestErrBudgetExceededTyped pins the typed budget error contract:
// Check returns *ErrBudgetExceeded carrying the criterion and budget,
// it unwraps to the ErrBudget sentinel, and the typing survives
// Classify's wrapping — the property batch callers rely on to
// distinguish resource exhaustion from real verdicts.
func TestErrBudgetExceededTyped(t *testing.T) {
	h := history.MustParse("adt: M[a-e]\np0: wa(1) wc(2) wd(1) rb/0 re/1 rc/3\np1: wb(1) wc(3) we(1) ra/0 rd/1 rc/3")
	_, _, err := Check(context.Background(), CritCCv, h, Options{MaxNodes: 10})
	if err == nil {
		t.Fatal("MaxNodes=10 did not exhaust the budget")
	}
	var be *ErrBudgetExceeded
	if !errors.As(err, &be) {
		t.Fatalf("Check error %T is not *ErrBudgetExceeded", err)
	}
	if be.Criterion != CritCCv || be.MaxNodes != 10 {
		t.Fatalf("ErrBudgetExceeded = %+v, want {CCv 10}", be)
	}
	if !errors.Is(err, ErrBudget) {
		t.Fatal("ErrBudgetExceeded does not unwrap to ErrBudget")
	}
	if got := err.Error(); got != "check: CCv search budget exceeded (MaxNodes=10)" {
		t.Fatalf("Error() = %q", got)
	}

	// Through Classify's %w wrapping.
	_, cerr := Classify(context.Background(), h, Options{MaxNodes: 10})
	if cerr == nil {
		t.Fatal("Classify did not surface the budget error")
	}
	be = nil
	if !errors.As(cerr, &be) || !errors.Is(cerr, ErrBudget) {
		t.Fatalf("Classify error %v lost the typed budget error", cerr)
	}
}

func batchCorpus(t *testing.T) []BatchItem {
	t.Helper()
	items := make([]BatchItem, len(fig3Texts))
	for i, text := range fig3Texts {
		items[i] = BatchItem{Name: fmt.Sprintf("fig3-%d", i), H: history.MustParse(text)}
	}
	return items
}

// TestClassifyBatchMatchesClassify cross-checks the batch engine
// against per-history Classify over the Fig. 3 corpus plus random
// histories, with several workers.
func TestClassifyBatchMatchesClassify(t *testing.T) {
	items := batchCorpus(t)
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 40; i++ {
		h := randomHistory(r)
		items = append(items, BatchItem{Name: fmt.Sprintf("random-%d", i), H: h})
	}
	res := ClassifyBatch(context.Background(), items, BatchOptions{Workers: 4})
	if len(res) != len(items) {
		t.Fatalf("got %d results for %d items", len(res), len(items))
	}
	for i, r := range res {
		if r.Item.Name != items[i].Name {
			t.Fatalf("result %d is %q, want %q (order lost)", i, r.Item.Name, items[i].Name)
		}
		if err := r.Err(); err != nil {
			t.Fatalf("%s: %v", r.Item.Name, err)
		}
		if len(r.LatticeViolations) > 0 {
			t.Fatalf("%s: lattice violations %v", r.Item.Name, r.LatticeViolations)
		}
		want, err := Classify(context.Background(), items[i].H, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(r.Class) {
			t.Fatalf("%s: criteria differ: %v vs %v", r.Item.Name, want, r.Class)
		}
		for c, v := range want {
			if r.Class[c] != v {
				t.Fatalf("%s: %v = %v, want %v", r.Item.Name, c, r.Class[c], v)
			}
		}
	}
}

// TestClassifyAllStreams feeds the engine through the channel API and
// checks every index comes back exactly once.
func TestClassifyAllStreams(t *testing.T) {
	items := batchCorpus(t)
	in := make(chan BatchItem)
	go func() {
		for i, it := range items {
			it.Index = i
			in <- it
		}
		close(in)
	}()
	seen := make(map[int]bool)
	for r := range ClassifyAll(context.Background(), in, BatchOptions{Workers: 3}) {
		if seen[r.Item.Index] {
			t.Fatalf("index %d delivered twice", r.Item.Index)
		}
		seen[r.Item.Index] = true
	}
	if len(seen) != len(items) {
		t.Fatalf("got %d results, want %d", len(seen), len(items))
	}
}

// TestClassifyBatchBudget pins that budget exhaustion is reported
// per-criterion as BudgetExceeded with the typed error, without
// failing the whole batch.
func TestClassifyBatchBudget(t *testing.T) {
	items := batchCorpus(t)
	res := ClassifyBatch(context.Background(), items[7:8], BatchOptions{Options: Options{MaxNodes: 10}})
	o, ok := res[0].Outcomes[CritCCv]
	if !ok {
		t.Fatal("no CCv outcome")
	}
	if !o.BudgetExceeded || !errors.Is(o.Err, ErrBudget) {
		t.Fatalf("outcome = %+v, want BudgetExceeded with typed error", o)
	}
	var be *ErrBudgetExceeded
	if !errors.As(o.Err, &be) || be.Criterion != CritCCv {
		t.Fatalf("outcome error %v is not the typed budget error", o.Err)
	}
	if _, ok := res[0].Class[CritCCv]; ok {
		t.Fatal("budget-exceeded criterion leaked into Class")
	}
}

// TestClassifyBatchTimeout pins the per-criterion timeout: an
// effectively-zero deadline must surface TimedOut (not a verdict, not
// an error) and the engine must return promptly.
func TestClassifyBatchTimeout(t *testing.T) {
	items := batchCorpus(t)[7:8] // 3h: the 12-event memory history
	start := time.Now()
	res := ClassifyBatch(context.Background(), items, BatchOptions{Timeout: time.Nanosecond})
	if el := time.Since(start); el > 30*time.Second {
		t.Fatalf("timeout batch took %v", el)
	}
	sawTimeout := false
	for c, o := range res[0].Outcomes {
		if o.Err != nil {
			t.Fatalf("%v: err %v alongside timeout", c, o.Err)
		}
		if o.TimedOut {
			sawTimeout = true
			if _, ok := res[0].Class[c]; ok {
				t.Fatalf("%v: timed out but present in Class", c)
			}
		}
	}
	if !sawTimeout {
		t.Fatal("nanosecond timeout produced no TimedOut outcome")
	}

	// And with a generous timeout nothing times out and verdicts match
	// the plain path.
	res = ClassifyBatch(context.Background(), items, BatchOptions{Timeout: time.Minute})
	want, err := Classify(context.Background(), items[0].H, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for c, v := range want {
		o := res[0].Outcomes[c]
		if o.TimedOut || o.Err != nil || o.Satisfied != v {
			t.Fatalf("%v: outcome %+v, want clean %v", c, o, v)
		}
	}
}
