package ccbm

// Keeps the sample history files under testdata/histories/ honest:
// each must parse and classify exactly as its header comment claims.

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"github.com/paper-repro/ccbm/internal/check"
	"github.com/paper-repro/ccbm/internal/history"
)

func TestSampleHistoryFiles(t *testing.T) {
	cases := []struct {
		file   string
		expect map[check.Criterion]bool
	}{
		{"fig3c.txt", map[check.Criterion]bool{check.CritCC: true, check.CritCCv: false, check.CritSC: false}},
		{"fig3d.txt", map[check.Criterion]bool{check.CritSC: true}},
		{"fig3f.txt", map[check.Criterion]bool{check.CritCC: true, check.CritSC: false}},
		{"mini3c.txt", map[check.Criterion]bool{check.CritCC: true, check.CritCCv: false}},
		{"window-2sess-40.txt", map[check.Criterion]bool{check.CritCC: true, check.CritCCv: true}},
	}
	for _, tc := range cases {
		data, err := os.ReadFile(filepath.Join("testdata", "histories", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		h, err := history.Parse(string(data))
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		for crit, want := range tc.expect {
			got, _, err := check.Check(context.Background(), crit, h, check.Options{})
			if err != nil {
				t.Fatalf("%s %v: %v", tc.file, crit, err)
			}
			if got != want {
				t.Errorf("%s: %v = %v, want %v", tc.file, crit, got, want)
			}
		}
	}
}

func TestSampleTimedHistoryFile(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "histories", "stale-read.timed.txt"))
	if err != nil {
		t.Fatal(err)
	}
	adtT, evs, err := history.ParseTimed(string(data))
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]check.TimedOp, len(evs))
	for i, ev := range evs {
		ops[i] = check.TimedOp{Proc: ev.Proc, Op: ev.Op, Inv: ev.Inv, Res: ev.Res}
	}
	lin, _, err := check.Linearizable(context.Background(), adtT, ops, check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc, _, err := check.SC(context.Background(), check.TimedToHistory(adtT, ops), check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lin || !sc {
		t.Fatalf("stale read: LIN=%v SC=%v, want ¬LIN ∧ SC", lin, sc)
	}
}
