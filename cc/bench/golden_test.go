package bench

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestScenarioGoldens pins every registered scenario's op stream: 64
// ops for each of 2 workers (seed 1, 8 objects), generated worker by
// worker with Run's per-worker seeding, so insert-grow's shared key
// counter is deterministic too. A change to a generator, a chooser or
// the seeding shows up as a diff here; run with UPDATE_GOLDEN=1 to
// rewrite testdata/scenario-<name>.golden when the change is meant.
func TestScenarioGoldens(t *testing.T) {
	const workers, steps, objects, seed = 2, 64, 8, 1
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			w, err := NewScenario(name, objects, RunConfig{Workers: workers, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			b.WriteString("# worker step object adt create update kind input\n")
			for id := 0; id < workers; id++ {
				wk := w.NewWorker(id, rand.New(rand.NewSource(seed+int64(id))))
				for step := 0; step < steps; step++ {
					op := wk.NextOp(step)
					fmt.Fprintf(&b, "%d %d %s %s %t %t %s %s\n",
						id, step, op.Object, op.ADT, op.Create, op.Update, op.Kind, op.Input)
				}
			}
			golden := filepath.Join("testdata", "scenario-"+name+".golden")
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with UPDATE_GOLDEN=1 to create): %v", err)
			}
			if got := b.String(); got != string(want) {
				gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
					if gotLines[i] != wantLines[i] {
						t.Fatalf("%s line %d:\n got  %s\n want %s\n(regenerate with UPDATE_GOLDEN=1 if intended)",
							golden, i+1, gotLines[i], wantLines[i])
					}
				}
				t.Fatalf("%s: %d lines, want %d", golden, len(gotLines), len(wantLines))
			}
		})
	}
}
