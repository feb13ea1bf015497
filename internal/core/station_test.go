package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/paper-repro/ccbm/internal/adt"
	"github.com/paper-repro/ccbm/internal/check"
	"github.com/paper-repro/ccbm/internal/net"
	"github.com/paper-repro/ccbm/internal/sim"
	"github.com/paper-repro/ccbm/internal/spec"
	"github.com/paper-repro/ccbm/internal/trace"
)

// newStationGroup wires n stations over a live transport.
func newStationGroup(t *testing.T, n int, mode Mode, cfg StationConfig) (*net.Live, []*Station) {
	t.Helper()
	lv := net.NewLive(n)
	sts := make([]*Station, n)
	for i := 0; i < n; i++ {
		sts[i] = NewStation(lv, i, mode, cfg)
	}
	return lv, sts
}

func ensureAll(t *testing.T, sts []*Station, name, adtName string) {
	t.Helper()
	for _, s := range sts {
		if err := s.EnsureObject(name, adtName); err != nil {
			t.Fatalf("EnsureObject(%s, %s): %v", name, adtName, err)
		}
	}
}

// settleGroup flushes every pending batch and waits for quiescence:
// with no new invocations, once every station is observed with no
// pending batch and no flush in flight, a final Quiesce covers any
// straggler broadcast (flushes run entirely under flushMu).
func settleGroup(lv *net.Live, sts []*Station) {
	for {
		for _, s := range sts {
			s.Flush()
		}
		lv.Quiesce()
		quiet := true
		for _, s := range sts {
			s.flushMu.Lock()
			s.batchMu.Lock()
			if len(s.pending) > 0 {
				quiet = false
			}
			s.batchMu.Unlock()
			s.flushMu.Unlock()
		}
		if quiet {
			lv.Quiesce()
			return
		}
	}
}

// TestStationConvergence drives concurrent sessions against every mode
// and checks that all stations converge per object once quiescent.
func TestStationConvergence(t *testing.T) {
	objects := map[string]string{
		"cart:1":  "Counter",
		"seen:2":  "GSet",
		"prof:3":  "Register",
		"queue:4": "Queue2",
	}
	for _, mode := range []Mode{ModeCC, ModePC, ModeEC, ModeCCv} {
		t.Run(mode.String(), func(t *testing.T) {
			lv, sts := newStationGroup(t, 3, mode, StationConfig{BatchOps: 4, BatchWait: 50 * time.Microsecond})
			defer lv.Close()
			for name, adtName := range objects {
				ensureAll(t, sts, name, adtName)
			}
			var wg sync.WaitGroup
			for sess := 0; sess < 6; sess++ {
				wg.Add(1)
				go func(sess int) {
					defer wg.Done()
					st := sts[sess%3]
					for i := 0; i < 40; i++ {
						var err error
						switch i % 4 {
						case 0:
							_, err = st.Invoke("cart:1", spec.NewInput("inc", 1))
						case 1:
							_, err = st.Invoke("seen:2", spec.NewInput("add", sess))
						case 2:
							_, err = st.Invoke("prof:3", spec.NewInput("w", sess*100+i))
						case 3:
							_, err = st.Invoke("queue:4", spec.NewInput("push", sess*1000+i))
						}
						if err != nil {
							t.Errorf("session %d: %v", sess, err)
							return
						}
					}
				}(sess)
			}
			wg.Wait()
			settleGroup(lv, sts)
			for name := range objects {
				// CC and PC order only causally/FIFO-related updates, so
				// replicas of non-commutative types may legitimately end in
				// different states; convergence of every object is the
				// timestamp modes' guarantee (EC, CCv). The commutative
				// objects (inc-only Counter, add-only GSet) must converge
				// under every mode.
				commutative := name == "cart:1" || name == "seen:2"
				if !commutative && mode != ModeEC && mode != ModeCCv {
					continue
				}
				key0, ok := sts[0].StateKey(name)
				if !ok {
					t.Fatalf("station 0 lost object %s", name)
				}
				for _, st := range sts[1:] {
					key, ok := st.StateKey(name)
					if !ok || key != key0 {
						t.Fatalf("mode %v object %s diverged: %q vs %q", mode, name, key0, key)
					}
				}
			}
		})
	}
}

// TestStationBatchingAmortizes pins that the batch path actually
// amortizes broadcasts: with many concurrent sessions and a roomy
// batch, broadcasts sent is well below updates sent.
func TestStationBatchingAmortizes(t *testing.T) {
	lv, sts := newStationGroup(t, 2, ModeCC, StationConfig{BatchOps: 16, BatchWait: 2 * time.Millisecond})
	defer lv.Close()
	ensureAll(t, sts, "o", "Counter")
	var wg sync.WaitGroup
	const sessions, each = 8, 50
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := sts[0].Invoke("o", spec.NewInput("inc", 1)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	settleGroup(lv, sts)
	st := sts[0].Stats()
	if st.BatchedOps != sessions*each {
		t.Fatalf("BatchedOps = %d, want %d", st.BatchedOps, sessions*each)
	}
	if st.Broadcasts >= st.BatchedOps {
		t.Fatalf("no batching: %d broadcasts for %d updates", st.Broadcasts, st.BatchedOps)
	}
	out, err := sts[0].Invoke("o", spec.NewInput("get"))
	if err != nil {
		t.Fatal(err)
	}
	if want := spec.IntOutput(sessions * each); !out.Equal(want) {
		t.Fatalf("get = %v, want %v", out, want)
	}
}

// TestStationUpdateOutputs pins per-op output routing under
// concurrency: every push output is ⊥, every pop obtains a distinct
// value or ⊥, and the multiset of popped values is a subset of pushes.
func TestStationUpdateOutputs(t *testing.T) {
	lv, sts := newStationGroup(t, 2, ModeCCv, StationConfig{BatchOps: 4, BatchWait: 100 * time.Microsecond})
	defer lv.Close()
	ensureAll(t, sts, "q", "Queue")
	var mu sync.Mutex
	popped := map[int]int{}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st := sts[g%2]
			for i := 0; i < 30; i++ {
				if g%2 == 0 {
					out, err := st.Invoke("q", spec.NewInput("push", g*1000+i))
					if err != nil || !out.Equal(spec.Bot) {
						t.Errorf("push: out=%v err=%v", out, err)
						return
					}
				} else {
					out, err := st.Invoke("q", spec.NewInput("pop"))
					if err != nil {
						t.Error(err)
						return
					}
					if !out.Equal(spec.Bot) {
						mu.Lock()
						popped[out.Vals[0]]++
						mu.Unlock()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	settleGroup(lv, sts)
	for v, n := range popped {
		if n != 1 {
			t.Fatalf("value %d popped %d times", v, n)
		}
	}
}

// TestStationCompact folds the stable prefix on CCv and preserves the
// observable state.
func TestStationCompact(t *testing.T) {
	lv, sts := newStationGroup(t, 3, ModeCCv, StationConfig{BatchOps: 1})
	defer lv.Close()
	ensureAll(t, sts, "c", "Counter")
	// Every station broadcasts so every origin's timestamp advances
	// everywhere (stability needs to hear from all).
	for round := 0; round < 5; round++ {
		for _, st := range sts {
			if _, err := st.Invoke("c", spec.NewInput("inc", 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	settleGroup(lv, sts)
	before, _ := sts[0].StateKey("c")
	if n := sts[0].Compact(); n == 0 {
		t.Fatal("Compact folded nothing despite all origins heard from")
	}
	after, _ := sts[0].StateKey("c")
	if before != after {
		t.Fatalf("Compact changed the state: %q -> %q", before, after)
	}
	if st := sts[0].Stats(); st.LogLen >= 15 {
		t.Fatalf("log not compacted: %d entries", st.LogLen)
	}
	// EC must refuse: unordered dissemination has no stable prefix.
	lvEC, stsEC := newStationGroup(t, 2, ModeEC, StationConfig{})
	defer lvEC.Close()
	ensureAll(t, stsEC, "c", "Counter")
	if _, err := stsEC[0].Invoke("c", spec.NewInput("inc", 1)); err != nil {
		t.Fatal(err)
	}
	settleGroup(lvEC, stsEC)
	if n := stsEC[0].Compact(); n != 0 {
		t.Fatalf("EC Compact folded %d entries, want 0", n)
	}
}

// TestStationWholeRunOracle runs the multi-object serving path under
// the seeded simulator — three unbatched stations, a Register and a
// Queue2 sharing one broadcast layer — and hands each object's COMPLETE
// recorded history to the exact checker for the claimed criterion, then
// requires the timestamp-ordered modes to converge. Single-threaded and
// seeded: no sleeps, no sampling, and a failure replays from its seed.
func TestStationWholeRunOracle(t *testing.T) {
	const n, ops = 3, 16
	objects := []struct {
		name string
		adt  spec.ADT
		gen  func(rng *rand.Rand, val int) spec.Input
	}{
		{"reg", adt.Register{}, func(rng *rand.Rand, val int) spec.Input {
			if rng.Intn(2) == 0 {
				return spec.NewInput("w", val)
			}
			return spec.NewInput("r")
		}},
		{"queue", adt.Queue2{}, func(rng *rand.Rand, val int) spec.Input {
			switch rng.Intn(3) {
			case 0:
				return spec.NewInput("push", val)
			case 1:
				return spec.NewInput("rh", rng.Intn(val)+1)
			}
			return spec.NewInput("hd")
		}},
	}
	claims := map[Mode]check.Criterion{ModeCC: check.CritCC, ModeCCv: check.CritCCv}
	for _, mode := range []Mode{ModeCC, ModeCCv, ModeEC} {
		for seed := int64(1); seed <= 10; seed++ {
			nw := sim.New(n, seed)
			sts := make([]*Station, n)
			for i := range sts {
				sts[i] = NewStation(nw, i, mode, StationConfig{})
			}
			recs := make([]*trace.Recorder, len(objects))
			for i, o := range objects {
				ensureAll(t, sts, o.name, o.adt.Name())
				recs[i] = trace.New(o.adt, n)
			}
			rng := rand.New(rand.NewSource(seed * 7919))
			for val := 1; val <= ops; val++ {
				p, i := rng.Intn(n), rng.Intn(len(objects))
				in := objects[i].gen(rng, val)
				out, err := sts[p].Invoke(objects[i].name, in)
				if err != nil {
					t.Fatalf("%v seed %d: %v", mode, seed, err)
				}
				recs[i].Record(p, in, out)
				for d := rng.Intn(4); d > 0; d-- {
					nw.Step()
				}
			}
			nw.Run(0)
			for i, o := range objects {
				if crit, ok := claims[mode]; ok {
					h := recs[i].History()
					sat, _, err := check.Check(context.Background(), crit, h, check.Options{Prune: check.PruneAll()})
					if err != nil {
						t.Fatalf("%v seed %d %s: %v", mode, seed, o.name, err)
					}
					if !sat {
						t.Fatalf("%v seed %d: object %s history is not %v:\n%s", mode, seed, o.name, crit, h)
					}
				}
				if mode == ModeCC {
					continue // apply-on-delivery may diverge for good
				}
				want, _ := sts[0].StateKey(o.name)
				for p := 1; p < n; p++ {
					if got, _ := sts[p].StateKey(o.name); got != want {
						t.Fatalf("%v seed %d: object %s diverged: station %d %q vs station 0 %q", mode, seed, o.name, p, got, want)
					}
				}
			}
		}
	}
}

// TestStationClose: Close flushes the pending batch (releasing
// waiters), further updates fail, queries still serve.
func TestStationClose(t *testing.T) {
	lv, sts := newStationGroup(t, 2, ModeCC, StationConfig{BatchOps: 1 << 20, BatchWait: time.Hour})
	defer lv.Close()
	ensureAll(t, sts, "r", "Register")
	done := make(chan error, 1)
	go func() {
		_, err := sts[0].Invoke("r", spec.NewInput("w", 7))
		done <- err
	}()
	// The update is parked on a batch that will never fill; Close must
	// release it.
	deadline := time.After(5 * time.Second)
	for {
		sts[0].batchMu.Lock()
		n := len(sts[0].pending)
		sts[0].batchMu.Unlock()
		if n == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("update never reached the pending batch")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	sts[0].Close()
	if err := <-done; err != nil {
		t.Fatalf("parked update failed at Close: %v", err)
	}
	if _, err := sts[0].Invoke("r", spec.NewInput("w", 8)); err == nil {
		t.Fatal("update accepted after Close")
	}
	if out, err := sts[0].Invoke("r", spec.NewInput("r")); err != nil || !out.Equal(spec.IntOutput(7)) {
		t.Fatalf("query after Close: out=%v err=%v", out, err)
	}
}

// TestStationUnknownObject pins the error path.
func TestStationUnknownObject(t *testing.T) {
	lv, sts := newStationGroup(t, 1, ModeCC, StationConfig{})
	defer lv.Close()
	if _, err := sts[0].Invoke("nope", spec.NewInput("r")); err == nil {
		t.Fatal("Invoke on unknown object succeeded")
	}
	if err := sts[0].EnsureObject("bad", "NotAnADT"); err == nil {
		t.Fatal("EnsureObject accepted an unknown ADT")
	}
}

// TestStationLazyRemoteCreation: an object created on one station only
// still materializes on its peers at first delivery.
func TestStationLazyRemoteCreation(t *testing.T) {
	lv, sts := newStationGroup(t, 2, ModeCC, StationConfig{})
	defer lv.Close()
	if err := sts[0].EnsureObject("solo", "Counter"); err != nil {
		t.Fatal(err)
	}
	if _, err := sts[0].Invoke("solo", spec.NewInput("inc", 5)); err != nil {
		t.Fatal(err)
	}
	settleGroup(lv, sts)
	out, err := sts[1].Invoke("solo", spec.NewInput("get"))
	if err != nil {
		t.Fatalf("peer did not materialize the object: %v", err)
	}
	if !out.Equal(spec.IntOutput(5)) {
		t.Fatalf("peer state = %v, want 5", out)
	}
}

// TestStationManyObjectsManySessions is the kitchen-sink soak: mixed
// ADTs, many sessions, all four modes, convergence at the end. Kept
// small enough for -race in CI.
func TestStationManyObjectsManySessions(t *testing.T) {
	// Timestamp modes only: they are the ones that promise convergence
	// for the non-commutative types in the mix (Register, Stack).
	for _, mode := range []Mode{ModeEC, ModeCCv} {
		lv, sts := newStationGroup(t, 3, mode, StationConfig{BatchOps: 8, BatchWait: 100 * time.Microsecond})
		adts := []string{"Counter", "GSet", "Register", "RWSet", "Stack"}
		var names []string
		for i := 0; i < 10; i++ {
			name := fmt.Sprintf("obj-%d", i)
			names = append(names, name)
			ensureAll(t, sts, name, adts[i%len(adts)])
		}
		var wg sync.WaitGroup
		for sess := 0; sess < 9; sess++ {
			wg.Add(1)
			go func(sess int) {
				defer wg.Done()
				st := sts[sess%3]
				for i := 0; i < 25; i++ {
					name := names[(sess+i)%len(names)]
					var in spec.Input
					switch (sess + i) % len(adts) {
					case 0:
						in = spec.NewInput("inc", 1)
					case 1:
						in = spec.NewInput("add", i%8)
					case 2:
						in = spec.NewInput("w", sess*100+i)
					case 3:
						in = spec.NewInput("add", i%8)
					case 4:
						in = spec.NewInput("push", sess*100+i)
					}
					if _, err := st.Invoke(name, in); err != nil {
						t.Error(err)
						return
					}
				}
			}(sess)
		}
		wg.Wait()
		settleGroup(lv, sts)
		for _, name := range names {
			key0, _ := sts[0].StateKey(name)
			for _, st := range sts[1:] {
				if key, _ := st.StateKey(name); key != key0 {
					t.Fatalf("mode %v: object %s diverged", mode, name)
				}
			}
		}
		lv.Close()
	}
}

// TestFingerprintSeesInFlightUpdates: in the state-converging modes a
// replica that has delivered inc(2) from origin 1 and one that has
// delivered inc(1), inc(1) from origin 2 hold the same counter, yet
// neither has seen the other's updates, so their fingerprints must
// differ — otherwise Converged reports convergence with updates in
// flight.
func TestFingerprintSeesInFlightUpdates(t *testing.T) {
	for _, mode := range []Mode{ModeEC, ModeCCv} {
		t.Run(mode.String(), func(t *testing.T) {
			converge := func(origin int, incs ...int) (key string, fp uint64) {
				lv, sts := newStationGroup(t, 3, mode, StationConfig{})
				defer lv.Close()
				ensureAll(t, sts, "c", "Counter")
				for _, k := range incs {
					if _, err := sts[origin].Invoke("c", spec.NewInput("inc", k)); err != nil {
						t.Fatal(err)
					}
				}
				settleGroup(lv, sts)
				key, _ = sts[0].StateKey("c")
				return key, sts[0].Fingerprint()
			}
			keyA, a := converge(1, 2)
			keyB, b := converge(2, 1, 1)
			if keyA != keyB {
				t.Fatalf("states differ (%q vs %q); the test needs equal states", keyA, keyB)
			}
			if a == b {
				t.Fatalf("inc(2) from origin 1 and inc(1), inc(1) from origin 2 share fingerprint %#x", a)
			}
		})
	}
}
