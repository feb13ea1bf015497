package main

import (
	"strings"
	"testing"
	"time"

	"github.com/paper-repro/ccbm/cc/cluster"
)

// TestAwaitVerdictsLate checks that a summary whose verdicts arrive
// after the first polls is judged only once the last one is in.
func TestAwaitVerdictsLate(t *testing.T) {
	polls := 0
	late := func() cluster.Summary {
		polls++
		v := 1040 + polls
		if v > 1056 {
			v = 1056
		}
		return cluster.Summary{WindowsSubmitted: 1056, WindowsDropped: 3, Verdicts: v}
	}
	sum, err := awaitVerdicts(late, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Verdicts != 1056 || polls < 16 {
		t.Fatalf("judged at %d verdicts after %d polls, want 1056 after at least 16", sum.Verdicts, polls)
	}
}

// TestAwaitVerdictsNeverComplete checks that verdicts still missing at
// the timeout fail the wait.
func TestAwaitVerdictsNeverComplete(t *testing.T) {
	stuck := func() cluster.Summary { return cluster.Summary{WindowsSubmitted: 1056, Verdicts: 1015} }
	sum, err := awaitVerdicts(stuck, 30*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "1015 of 1056") {
		t.Fatalf("err = %v, want a missing-verdicts error", err)
	}
	if sum.Verdicts != 1015 {
		t.Fatalf("returned summary has %d verdicts, want the last poll's 1015", sum.Verdicts)
	}
}
