package bench

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/paper-repro/ccbm/cc"
)

// TestScenarioMixMatchesProfile holds every registered scenario to
// its declared Profile: over many draws the realized op-kind
// fractions must match the declared percentages within binomial
// tolerance, every op's Update flag must agree with both the declared
// mix entry and the ADT's own classification of the input, and every
// op must target a declared ADT. (Same statistical style as
// internal/workload's generator tests: 4.5 sigma keeps the false
// failure rate per check around 1e-5 while catching a mix that is
// off by a point.)
func TestScenarioMixMatchesProfile(t *testing.T) {
	const draws = 40000
	for _, info := range Scenarios() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			w, err := Lookup(info.Name)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Init(Config{Objects: 8, Workers: 4, Seed: 11}); err != nil {
				t.Fatal(err)
			}
			if len(w.Objects()) == 0 {
				t.Fatal("Init produced no initial objects")
			}

			declared := make(map[string]MixEntry)
			var total float64
			for _, m := range info.Profile.Mix {
				declared[m.Kind] = m
				total += m.Fraction
			}
			if math.Abs(total-1) > 1e-9 {
				t.Fatalf("declared mix fractions sum to %v, want 1", total)
			}
			adts := make(map[string]cc.ADT)
			for _, name := range info.Profile.ADTs {
				a, err := cc.LookupADT(name)
				if err != nil {
					t.Fatalf("profile declares unknown ADT %q: %v", name, err)
				}
				adts[name] = a
			}

			wk := w.NewWorker(0, rand.New(rand.NewSource(42)))
			counts := make(map[string]int)
			for step := 0; step < draws; step++ {
				op := wk.NextOp(step)
				m, ok := declared[op.Kind]
				if !ok {
					t.Fatalf("step %d: generated undeclared kind %q", step, op.Kind)
				}
				counts[op.Kind]++
				if op.Update != m.Update {
					t.Fatalf("step %d: kind %q Update=%v, declared %v", step, op.Kind, op.Update, m.Update)
				}
				a, ok := adts[op.ADT]
				if !ok {
					t.Fatalf("step %d: op targets undeclared ADT %q", step, op.ADT)
				}
				if a.IsUpdate(op.Input) != op.Update {
					t.Fatalf("step %d: kind %q input %v: ADT says update=%v, op says %v",
						step, op.Kind, op.Input, a.IsUpdate(op.Input), op.Update)
				}
				if op.Object == "" {
					t.Fatalf("step %d: empty object name", step)
				}
			}

			for kind, m := range declared {
				ratio := float64(counts[kind]) / draws
				tol := 4.5 * math.Sqrt(m.Fraction*(1-m.Fraction)/draws)
				if math.Abs(ratio-m.Fraction) > tol {
					t.Errorf("kind %q: realized %.4f, declared %.4f (tol %.4f over %d draws)",
						kind, ratio, m.Fraction, tol, draws)
				}
			}
		})
	}
}

// TestScenarioWorkersIndependent: distinct workers with distinct rngs
// generate without data races and with per-worker state (session-cart
// workers own different carts).
func TestScenarioWorkersIndependent(t *testing.T) {
	w, err := Lookup("session-cart")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Init(Config{Objects: 4, Workers: 3, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	carts := make(map[string]bool)
	for id := 0; id < 3; id++ {
		wk := w.NewWorker(id, rand.New(rand.NewSource(int64(id))))
		for step := 0; step < 200; step++ {
			op := wk.NextOp(step)
			if op.ADT == "RWSet" {
				carts[op.Object] = true
			}
		}
	}
	if len(carts) != 3 {
		t.Fatalf("3 workers touched %d distinct carts %v, want their own 3", len(carts), carts)
	}
}

// TestInsertGrowMintsObjects: insert ops carry Create and extend the
// keyspace past the initial population.
func TestInsertGrowMintsObjects(t *testing.T) {
	w, err := Lookup("insert-grow")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Init(Config{Objects: 4, Workers: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	initial := make(map[string]bool)
	for _, o := range w.Objects() {
		initial[o.Name] = true
	}
	wk := w.NewWorker(0, rand.New(rand.NewSource(9)))
	created := 0
	for step := 0; step < 2000; step++ {
		op := wk.NextOp(step)
		if op.Create {
			created++
			if initial[op.Object] {
				t.Fatalf("step %d: Create for pre-existing object %s", step, op.Object)
			}
		}
	}
	if created == 0 {
		t.Fatal("2000 ops minted no new objects at 5% insert")
	}
}

// TestInsertGrowCreatesMintedKeys: an update or read may pick a key
// another worker minted but has not created yet, so every op on a key
// outside the initial population must carry Create. Checked over the
// golden stream (2 workers, seed 1, 8 objects).
func TestInsertGrowCreatesMintedKeys(t *testing.T) {
	w, err := NewScenario("insert-grow", 8, RunConfig{Workers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	initial := make(map[string]bool)
	for _, o := range w.Objects() {
		initial[o.Name] = true
	}
	minted := 0
	for id := 0; id < 2; id++ {
		wk := w.NewWorker(id, rand.New(rand.NewSource(1+int64(id))))
		for step := 0; step < 64; step++ {
			op := wk.NextOp(step)
			if initial[op.Object] {
				continue
			}
			minted++
			if !op.Create {
				t.Errorf("worker %d step %d: %s on minted key %s without Create", id, step, op.Kind, op.Object)
			}
		}
	}
	if minted == 0 {
		t.Fatal("golden stream never touched a minted key")
	}
}

// Registry behavior: unknown lookups fail with the catalog, names are
// sorted, duplicates are rejected, and Lookup hands out fresh
// instances (two runs must not share Init state).
func TestScenarioRegistry(t *testing.T) {
	if _, err := Lookup("no-such-scenario"); err == nil {
		t.Fatal("Lookup of unknown scenario succeeded")
	}
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	for _, want := range []string{"read-heavy", "write-heavy", "session-cart", "insert-grow", "scan-range", "mixed"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("built-in scenario %q not registered (have %v)", want, names)
		}
	}
	if err := Register(func() Workload { return &readHeavy{} }); err == nil {
		t.Error("duplicate Register succeeded")
	}
	a, _ := Lookup("read-heavy")
	b, _ := Lookup("read-heavy")
	if a == b {
		t.Error("Lookup returned a shared instance")
	}
	for _, info := range Scenarios() {
		if info.Doc == "" {
			t.Errorf("scenario %q has no doc line", info.Name)
		}
	}
}

// TestNewChooserBounds: every distribution stays in [0, n), and
// KeyLatest actually skews to the newest (highest) indices.
func TestNewChooserBounds(t *testing.T) {
	for _, dist := range []KeyDist{KeyUniform, KeyZipf, KeyLatest} {
		rng := rand.New(rand.NewSource(5))
		pick := NewChooser(dist, 1.1, rng)
		for i := 0; i < 5000; i++ {
			n := 1 + i%37
			if got := pick(n); got < 0 || got >= n {
				t.Fatalf("%s: pick(%d) = %d out of range", dist, n, got)
			}
		}
	}
	rng := rand.New(rand.NewSource(6))
	pick := NewChooser(KeyLatest, 1.1, rng)
	top := 0
	const n, draws = 100, 10000
	for i := 0; i < draws; i++ {
		if pick(n) >= n-10 {
			top++
		}
	}
	// Uniform would put 0.10 of draws on the newest decile; the zipf
	// anchor concentrates ~4x that there.
	if frac := float64(top) / draws; frac < 0.25 {
		t.Errorf("latest: only %.2f of draws hit the newest 10%% of keys", frac)
	}
}
