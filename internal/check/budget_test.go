package check

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/paper-repro/ccbm/internal/history"
)

// fig3Texts is the Fig. 3 corpus (the same texts paperfig encodes;
// kept inline because importing paperfig from package check would be
// cyclic).
var fig3Texts = []string{
	"adt: W2\np0: w(1) r/(0,1) r/(1,2)*\np1: w(2) r/(0,2) r/(1,2)*",
	"adt: W2\np0: w(1) r/(0,1)*\np1: w(2) r/(0,2)*",
	"adt: W2\np0: w(1) r/(2,1)\np1: w(2) r/(1,2)",
	"adt: W2\np0: w(1) r/(0,1)\np1: w(2) r/(1,2)",
	"adt: Queue\np0: push(1) pop/1 pop/1 push(3)\np1: push(2) pop/3 push(1)",
	"adt: Queue\np0: pop/1 pop/_\np1: push(1) push(2) pop/1 pop/_",
	"adt: Queue2\np0: hd/1 rh(1) hd/2 rh(2)\np1: push(1) push(2) hd/1 rh(1) hd/2 rh(2)",
	"adt: M[a-e]\np0: wa(1) wc(2) wd(1) rb/0 re/1 rc/3\np1: wb(1) wc(3) we(1) ra/0 rd/1 rc/3",
	"adt: M[a-d]\np0: wa(1) wa(2) wb(3) rd/3 rc/1 wa(1)\np1: wc(1) wc(2) wd(3) rb/3 ra/1 wc(1)",
}

// TestSequentialCancel covers the context plumbing of the searchers
// (SC, PC, UC, CM and the causal family).
func TestSequentialCancel(t *testing.T) {
	h := history.MustParse(fig3Texts[7])
	hOmega := history.MustParse(fig3Texts[0]) // UC only searches when ω-events exist
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []Criterion{CritSC, CritPC, CritWCC, CritCC, CritCCv} {
		_, _, err := Check(ctx, c, h, Options{})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want context.Canceled", c, err)
		}
	}
	if _, _, err := Check(ctx, CritUC, hOmega, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("UC: err = %v, want context.Canceled", err)
	}
	hMem := history.MustParse(fig3Texts[8]) // 3i: a memory history, for CM
	if _, _, err := Check(ctx, CritCM, hMem, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("CM: err = %v, want context.Canceled", err)
	}
	// And a cancellation arriving mid-search, from another goroutine.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	done := make(chan error, 1)
	go func() {
		_, _, err := Check(ctx2, CritCCv, h, Options{})
		done <- err
	}()
	time.Sleep(time.Millisecond)
	cancel2()
	select {
	case err := <-done:
		// Either the search finished before the cancellation landed
		// (fine) or it was interrupted.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-search cancel: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled search did not unwind")
	}
}

// TestCancellableContextKeepsBudget pins that feeding the budget in
// chunks (a live cancellable context) changes nothing but the polling:
// verdict, witness, budget exhaustion and the explored-node count all
// equal those of the plain countdown (context.Background()), at every
// budget from starved to default.
func TestCancellableContextKeepsBudget(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i, text := range fig3Texts {
		h := history.MustParse(text)
		for _, c := range []Criterion{CritWCC, CritCC, CritCCv, CritSC, CritPC} {
			for _, prune := range []Prune{{}, PruneAll()} {
				for _, maxNodes := range []int{5, 50, 5000, 0} {
					name := fmt.Sprintf("fig3[%d] %v prune=%v max=%d", i, c, prune != Prune{}, maxNodes)
					sB, sC := &Stats{}, &Stats{}
					okB, wB, errB := Check(context.Background(), c, h, Options{MaxNodes: maxNodes, Prune: prune, Stats: sB})
					okC, wC, errC := Check(ctx, c, h, Options{MaxNodes: maxNodes, Prune: prune, Stats: sC})
					if okB != okC || errors.Is(errB, ErrBudget) != errors.Is(errC, ErrBudget) || (errB == nil) != (errC == nil) {
						t.Fatalf("%s: background (%v, %v) != cancellable (%v, %v)", name, okB, errB, okC, errC)
					}
					if sB.Nodes != sC.Nodes {
						t.Fatalf("%s: explored %d nodes under background, %d under a cancellable context", name, sB.Nodes, sC.Nodes)
					}
					if !reflect.DeepEqual(wB, wC) {
						t.Fatalf("%s: witness diverged\nbackground:  %+v\ncancellable: %+v", name, wB, wC)
					}
				}
			}
		}
	}
}

// The searches are single-threaded; parallelism is across histories
// (the batch engine's workers, or callers' own goroutines). The
// TestParallel* tests pin that concurrent searches stay independent:
// equal results, their own budgets, their own cancellation.

// TestParallelRaceStress runs unpruned causal checks of the Fig. 3
// corpus from many goroutines at once and requires each to match the
// single-goroutine verdict and explored-node count; under -race it
// also shows that concurrent searches share no mutable state.
func TestParallelRaceStress(t *testing.T) {
	crits := []Criterion{CritWCC, CritCC, CritCCv}
	type ref struct {
		ok    bool
		nodes int64
	}
	want := make(map[string]ref)
	for _, text := range fig3Texts {
		h := history.MustParse(text)
		for _, c := range crits {
			s := &Stats{}
			ok, _, err := Check(context.Background(), c, h, Options{Stats: s})
			if err != nil {
				t.Fatalf("%v: %v", c, err)
			}
			want[fmt.Sprint(text, c)] = ref{ok, s.Nodes}
		}
	}
	var wg sync.WaitGroup
	for rep := 0; rep < 4; rep++ {
		for _, text := range fig3Texts {
			wg.Add(1)
			go func(text string) {
				defer wg.Done()
				h := history.MustParse(text)
				for _, c := range crits {
					s := &Stats{}
					ok, _, err := Check(context.Background(), c, h, Options{Stats: s})
					if err != nil {
						t.Errorf("%q %v: %v", strings.SplitN(text, "\n", 2)[0], c, err)
						continue
					}
					if got := (ref{ok, s.Nodes}); got != want[fmt.Sprint(text, c)] {
						t.Errorf("%q %v: concurrent %+v, alone %+v", strings.SplitN(text, "\n", 2)[0], c, got, want[fmt.Sprint(text, c)])
					}
				}
			}(text)
		}
	}
	wg.Wait()
}

// TestParallelBudgetExhaustion starves several concurrent CCv searches
// of 3h, both through the batch engine's workers and through a live
// cancellable context (chunked budget feeding): each must exhaust its
// own budget and report the typed *ErrBudgetExceeded{CCv, 5}.
func TestParallelBudgetExhaustion(t *testing.T) {
	h := history.MustParse(fig3Texts[7]) // 3h, 12 events
	items := make([]BatchItem, 8)
	for i := range items {
		items[i] = BatchItem{H: h}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, c := range []context.Context{context.Background(), ctx} {
		res := ClassifyBatch(c, items, BatchOptions{
			Options:  Options{MaxNodes: 5},
			Workers:  4,
			Criteria: []Criterion{CritCCv},
		})
		for i, r := range res {
			o := r.Outcomes[CritCCv]
			var be *ErrBudgetExceeded
			if !o.BudgetExceeded || !errors.As(o.Err, &be) || be.Criterion != CritCCv || be.MaxNodes != 5 {
				t.Fatalf("item %d: outcome %+v, want *ErrBudgetExceeded{CCv, 5}", i, o)
			}
		}
	}
}

// TestParallelCancel feeds a pre-cancelled context to a batch of CCv
// searches running on several workers: every one must abort on its
// first poll with context.Canceled, and the batch must still drain.
func TestParallelCancel(t *testing.T) {
	h := history.MustParse(fig3Texts[7])
	items := make([]BatchItem, 8)
	for i := range items {
		items[i] = BatchItem{H: h}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // pre-cancelled: must abort on the first poll
	res := ClassifyBatch(ctx, items, BatchOptions{Workers: 4, Criteria: []Criterion{CritCCv}})
	for i, r := range res {
		if err := r.Outcomes[CritCCv].Err; !errors.Is(err, context.Canceled) {
			t.Fatalf("item %d: err = %v, want context.Canceled", i, err)
		}
	}
}
