package paperfig_test

import (
	"testing"

	"github.com/paper-repro/ccbm/internal/check"
	"github.com/paper-repro/ccbm/internal/paperfig"
)

func TestFixturesParse(t *testing.T) {
	figs := paperfig.Fig3()
	if len(figs) != 9 {
		t.Fatalf("Fig. 3 has %d sub-figures, want 9", len(figs))
	}
	seen := map[string]bool{}
	for _, f := range figs {
		if seen[f.Name] {
			t.Fatalf("duplicate fixture %s", f.Name)
		}
		seen[f.Name] = true
		h := f.History()
		if h.N() == 0 {
			t.Fatalf("%s: empty history", f.Name)
		}
		if len(f.Claims) == 0 {
			t.Fatalf("%s: no claims", f.Name)
		}
		for _, cl := range f.Claims {
			if cl.Criterion < check.CritEC || cl.Criterion > check.CritSC {
				t.Fatalf("%s: bad criterion %v", f.Name, cl.Criterion)
			}
		}
	}
}

// TestVerifyClaims runs the fixtures' claim oracle exhaustively and
// with the pruners on; both must reproduce every caption verdict.
func TestVerifyClaims(t *testing.T) {
	for _, f := range paperfig.Fig3() {
		if err := f.VerifyClaims(check.Options{}); err != nil {
			t.Errorf("exhaustive: %v", err)
		}
		if err := f.VerifyClaims(check.Options{Prune: check.PruneAll()}); err != nil {
			t.Errorf("pruned: %v", err)
		}
	}
}

func TestFig3ByName(t *testing.T) {
	f, ok := paperfig.Fig3ByName("3c")
	if !ok || f.Name != "3c" {
		t.Fatalf("Fig3ByName(3c) = %v %v", f.Name, ok)
	}
	if _, ok := paperfig.Fig3ByName("9z"); ok {
		t.Fatal("Fig3ByName accepted a bogus name")
	}
}

// TestOmegaFlagsMatchClaims: only fixtures with ω-reading claims carry
// ω flags, and stripping them yields ω-free histories.
func TestOmegaFlagsMatchClaims(t *testing.T) {
	for _, f := range paperfig.Fig3() {
		h := f.History()
		needsOmega := false
		for _, cl := range f.Claims {
			if cl.OmegaReading {
				needsOmega = true
			}
		}
		if needsOmega && !h.HasOmega() {
			t.Errorf("%s: ω-reading claim but no ω flags", f.Name)
		}
		if f.FiniteHistory().HasOmega() {
			t.Errorf("%s: FiniteHistory still has ω flags", f.Name)
		}
	}
}

func TestFig2HistoryShape(t *testing.T) {
	h, extra := paperfig.Fig2History()
	if h.N() != 12 || len(h.Processes()) != 3 {
		t.Fatalf("Fig. 2 history: %d events, %d processes", h.N(), len(h.Processes()))
	}
	if len(extra) == 0 {
		t.Fatal("Fig. 2 needs cross-process causal edges")
	}
	if check.CausalOrderFrom(h, extra) == nil {
		t.Fatal("Fig. 2 causal edges are cyclic")
	}
}
