package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"github.com/paper-repro/ccbm/cc"
)

// ObjectSpec names one object a workload needs, with its registry ADT.
type ObjectSpec struct {
	Name string
	ADT  string
}

// Op is one generated operation. Kind ties the op back to the
// workload's declared mix (Profile.Mix), so a harness can verify the
// realized percentages against the declared ones. Create asks the
// executor to (idempotently) create the object first — the growing-
// keyspace scenarios mint objects mid-run.
type Op struct {
	Object string
	ADT    string // registry ADT name (used when Create is set)
	Create bool
	Input  cc.Input
	Update bool
	Kind   string
}

// Config parameterizes a workload instance for one run.
type Config struct {
	// Objects scales the base object population (each scenario
	// documents how it interprets it); <= 0 uses the scenario default.
	Objects int
	// Workers is how many concurrent workers (one session each) the
	// run will drive; per-worker scenarios (session-cart) size their
	// population by it. <= 0 means 1.
	Workers int
	// Seed drives every random choice the workload makes.
	Seed int64
}

func (c *Config) fill() {
	if c.Objects <= 0 {
		c.Objects = 8
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
}

// MixEntry declares one op kind and its exact fraction of the
// generated stream (blurr-style percentages, as probabilities).
type MixEntry struct {
	Kind     string
	Fraction float64
	Update   bool // whether ops of this kind mutate state
}

// Profile is a workload's declared shape: the ADTs it populates, the
// key (object-popularity) distribution, and the op mix. The scenario
// statistical tests hold every registered workload to its Profile.
type Profile struct {
	ADTs []string
	Dist KeyDist
	Skew float64 // Zipf exponent, when Dist uses one
	Mix  []MixEntry
}

// WriteFraction sums the declared update kinds.
func (p Profile) WriteFraction() float64 {
	var w float64
	for _, m := range p.Mix {
		if m.Update {
			w += m.Fraction
		}
	}
	return w
}

// Workload is one experiment scenario (the yabf shape): Init is
// called once per run with the run's Config, Objects lists the
// initial population to create, and NewWorker returns the per-worker
// state (one per client routine; the returned Worker is NOT shared).
type Workload interface {
	// Name is the registry key, e.g. "read-heavy".
	Name() string
	// Doc is a one-line description, shown by -list-scenarios.
	Doc() string
	// Profile declares the scenario's ADT mix, key distribution and op
	// percentages.
	Profile() Profile
	// Init prepares shared state. Called once, before any worker.
	Init(cfg Config) error
	// Objects lists the initial object population, valid after Init.
	Objects() []ObjectSpec
	// NewWorker creates the state for one client routine. Workers of
	// one workload may share structures internally, but NextOp on
	// distinct workers must be safe to call concurrently.
	NewWorker(id int, rng *rand.Rand) Worker
}

// Worker generates one client routine's operation stream. step is a
// monotone per-worker counter (keeps written values distinct, which
// keeps the exact checkers sharp).
type Worker interface {
	NextOp(step int) Op
}

// ScenarioInfo describes one registered scenario.
type ScenarioInfo struct {
	Name    string
	Doc     string
	Profile Profile
}

var scenarios = struct {
	sync.RWMutex
	byName map[string]func() Workload
}{byName: make(map[string]func() Workload)}

// Register adds a workload factory to the scenario registry under the
// name (and doc) of the instance it produces. It fails on an empty
// name or a duplicate; the built-ins claim read-heavy, write-heavy,
// session-cart, insert-grow, scan-range and mixed.
func Register(make func() Workload) error {
	w := make()
	name := w.Name()
	if name == "" {
		return fmt.Errorf("bench: Register: empty workload name")
	}
	scenarios.Lock()
	defer scenarios.Unlock()
	if _, dup := scenarios.byName[name]; dup {
		return fmt.Errorf("bench: Register %q: already registered", name)
	}
	scenarios.byName[name] = make
	return nil
}

// MustRegister is Register for package init blocks; it panics on
// error.
func MustRegister(make func() Workload) {
	if err := Register(make); err != nil {
		panic(err)
	}
}

// Lookup returns a fresh, un-Init'ed instance of a named scenario.
func Lookup(name string) (Workload, error) {
	scenarios.RLock()
	make, ok := scenarios.byName[name]
	scenarios.RUnlock()
	if !ok {
		return nil, fmt.Errorf("bench: unknown scenario %q (registered: %v)", name, Names())
	}
	return make(), nil
}

// Names returns the registered scenario names, sorted.
func Names() []string {
	scenarios.RLock()
	defer scenarios.RUnlock()
	names := make([]string, 0, len(scenarios.byName))
	for name := range scenarios.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Scenarios describes every registered scenario, sorted by name.
func Scenarios() []ScenarioInfo {
	infos := make([]ScenarioInfo, 0)
	for _, name := range Names() {
		w, err := Lookup(name)
		if err != nil {
			continue
		}
		infos = append(infos, ScenarioInfo{Name: w.Name(), Doc: w.Doc(), Profile: w.Profile()})
	}
	return infos
}

// newInput is cc.NewInput, shortened for the scenario op tables.
func newInput(method string, args ...int) cc.Input { return cc.NewInput(method, args...) }
