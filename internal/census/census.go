// Package census exhaustively enumerates every distributed history of
// a given small shape over an ADT, classifies each against the
// paper's criteria, and aggregates the result: how many histories each
// criterion admits, which classification profiles occur, and a minimal
// witness for every strict separation in Fig. 1's hierarchy.
//
// The paper proves the hierarchy by exhibiting one hand-picked history
// per separation (Fig. 3). The census mechanizes the other direction:
// over *all* histories of a bounded shape, no implication arrow is
// ever violated, and every claimed strictness has a machine-found
// witness — usually smaller than the paper's. It doubles as a
// large-scale differential test of the seven checkers against each
// other.
//
// Enumeration is embarrassingly parallel; classification fans out over
// a worker pool, one goroutine per CPU, with deterministic results
// (counts are order-independent, witnesses are minimal in enumeration
// order).
package census

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"

	"github.com/paper-repro/ccbm/internal/check"
	"github.com/paper-repro/ccbm/internal/history"
	"github.com/paper-repro/ccbm/internal/spec"
)

// Config describes the enumeration space.
type Config struct {
	// ADT is the data type of every history.
	ADT spec.ADT
	// Shape gives the number of events of each process; len(Shape)
	// processes.
	Shape []int
	// Inputs is the alphabet each event's input ranges over.
	Inputs []spec.Input
	// OutputsFor gives the candidate outputs enumerated for an input.
	// Update-only inputs typically return just ⊥; queries return the
	// plausible value domain. It must return at least one candidate.
	OutputsFor func(in spec.Input) []spec.Output
	// Omega marks the last event of every process as ω-repeating when
	// it is not an update (the infinite-history reading; update-ending
	// processes are enumerated un-flagged, as the encoding only
	// supports repeating pure queries).
	Omega bool
	// Criteria to classify against; defaults to AllCriteria minus CM
	// (which only applies to memory histories).
	Criteria []check.Criterion
	// MaxHistories aborts the census if the space exceeds it
	// (default 1 << 20).
	MaxHistories int
	// Options tunes the underlying checkers.
	Options check.Options
	// Workers overrides the pool size (default NumCPU).
	Workers int
}

// Profile is one observed classification vector.
type Profile struct {
	// Key lists the satisfied criteria, strongest-last, e.g.
	// "EC UC PC WCC CC".
	Key string
	// Count is the number of histories with this vector.
	Count int
	// Example is the first history (in enumeration order) with this
	// vector.
	Example *history.History

	exampleIdx int
}

// Separation is a machine-found strictness witness: a history
// satisfying Weaker but not Stronger.
type Separation struct {
	Stronger, Weaker check.Criterion
	Witness          *history.History
	Index            int // enumeration index (minimal)
}

// Result aggregates a census run.
type Result struct {
	Total      int
	Criteria   []check.Criterion // the criteria classified, in run order
	Counts     map[check.Criterion]int
	Profiles   []Profile
	Violations []Separation // implication arrows violated (expected empty)
	Seps       []Separation // strictness witnesses per Fig. 1 arrow
}

func (cfg *Config) criteria() []check.Criterion {
	if cfg.Criteria != nil {
		return cfg.Criteria
	}
	out := make([]check.Criterion, 0, len(check.AllCriteria))
	for _, c := range check.AllCriteria {
		if c != check.CritCM {
			out = append(out, c)
		}
	}
	return out
}

func (cfg *Config) maxHistories() int {
	if cfg.MaxHistories > 0 {
		return cfg.MaxHistories
	}
	return 1 << 20
}

// Size returns the number of histories the configuration denotes
// without enumerating them.
func (cfg *Config) Size() (int, error) {
	slots := 0
	for _, s := range cfg.Shape {
		slots += s
	}
	total := 1
	for i := 0; i < slots; i++ {
		total *= len(cfg.Inputs)
		if total > cfg.maxHistories() {
			return 0, fmt.Errorf("census: input space exceeds %d histories", cfg.maxHistories())
		}
	}
	// Output choices depend on the input per slot; Size reports the
	// upper bound using the widest output domain.
	widest := 1
	for _, in := range cfg.Inputs {
		if n := len(cfg.OutputsFor(in)); n > widest {
			widest = n
		}
	}
	for i := 0; i < slots; i++ {
		total *= widest
		if total > cfg.maxHistories() {
			return 0, fmt.Errorf("census: history space exceeds %d", cfg.maxHistories())
		}
	}
	return total, nil
}

// Run enumerates and classifies the whole space. The classification
// fan-out rides the check package's batch engine (ClassifyAll): one
// bounded worker pool across histories, with cfg.Options passed
// through to every checker. Aggregation is single-threaded on the result stream,
// which makes it deterministic without locking.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run under a caller-controlled context: cancellation
// aborts the in-flight checks within their poll interval and surfaces
// ctx.Err().
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if len(cfg.Shape) == 0 || len(cfg.Inputs) == 0 || cfg.OutputsFor == nil {
		return nil, fmt.Errorf("census: Shape, Inputs and OutputsFor are required")
	}
	criteria := cfg.criteria()

	items := make(chan check.BatchItem, 256)
	errc := make(chan error, 1)
	go func() {
		defer close(items)
		if err := enumerate(cfg, items); err != nil {
			select {
			case errc <- err:
			default:
			}
		}
	}()

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	var (
		total    int
		counts   = make(map[check.Criterion]int, len(criteria))
		profiles = make(map[string]*Profile)
		viol     []Separation
		seps     = make(map[[2]check.Criterion]*Separation)
		firstErr error
	)
	results := check.ClassifyAll(ctx, items, check.BatchOptions{
		Options:  cfg.Options,
		Workers:  workers,
		Criteria: criteria,
	})
	for r := range results {
		if firstErr != nil {
			continue // drain so the workers can exit
		}
		cl := r.Class
		bad := false
		for _, c := range criteria {
			o, ok := r.Outcomes[c]
			if !ok {
				continue // CM on a non-memory ADT
			}
			if o.Err != nil {
				firstErr = fmt.Errorf("census: history %d: %v: %w", r.Item.Index, c, o.Err)
				bad = true
				break
			}
		}
		if bad {
			continue
		}
		h, idx := r.Item.H, r.Item.Index
		total++
		key := profileKey(criteria, cl)
		p := profiles[key]
		if p == nil {
			p = &Profile{Key: key, Example: h, exampleIdx: idx}
			profiles[key] = p
		} else if idx < p.exampleIdx {
			p.Example, p.exampleIdx = h, idx
		}
		p.Count++
		for _, c := range criteria {
			if cl[c] {
				counts[c]++
			}
		}
		for _, imp := range check.Implications() {
			s, okS := cl[imp[0]]
			w, okW := cl[imp[1]]
			if !okS || !okW {
				continue
			}
			if s && !w {
				viol = append(viol, Separation{Stronger: imp[0], Weaker: imp[1], Witness: h, Index: idx})
			}
			if w && !s {
				cur := seps[imp]
				if cur == nil || idx < cur.Index {
					seps[imp] = &Separation{Stronger: imp[0], Weaker: imp[1], Witness: h, Index: idx}
				}
			}
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}

	select {
	case err := <-errc:
		return nil, err
	default:
	}

	res := &Result{Total: total, Criteria: criteria, Counts: counts}
	for _, p := range profiles {
		res.Profiles = append(res.Profiles, *p)
	}
	sort.Slice(res.Profiles, func(i, j int) bool {
		if res.Profiles[i].Count != res.Profiles[j].Count {
			return res.Profiles[i].Count > res.Profiles[j].Count
		}
		return res.Profiles[i].Key < res.Profiles[j].Key
	})
	res.Violations = viol
	for _, imp := range check.Implications() {
		if s := seps[imp]; s != nil {
			res.Seps = append(res.Seps, *s)
		}
	}
	sort.Slice(res.Seps, func(i, j int) bool {
		if res.Seps[i].Stronger != res.Seps[j].Stronger {
			return res.Seps[i].Stronger < res.Seps[j].Stronger
		}
		return res.Seps[i].Weaker < res.Seps[j].Weaker
	})
	return res, nil
}

// profileKey renders a classification deterministically, weakest
// criteria first in AllCriteria order.
func profileKey(criteria []check.Criterion, cl check.Classification) string {
	var parts []string
	for _, c := range check.AllCriteria {
		has := false
		for _, cc := range criteria {
			if cc == c {
				has = true
				break
			}
		}
		if has && cl[c] {
			parts = append(parts, c.String())
		}
	}
	if len(parts) == 0 {
		return "(none)"
	}
	return strings.Join(parts, " ")
}

// enumerate generates every history of the configured shape, assigning
// first inputs then outputs slot by slot.
func enumerate(cfg Config, out chan<- check.BatchItem) error {
	slots := 0
	for _, s := range cfg.Shape {
		slots += s
	}
	if _, err := cfg.Size(); err != nil {
		return err
	}
	procOf := make([]int, 0, slots)
	lastOf := make([]bool, 0, slots)
	for p, s := range cfg.Shape {
		for i := 0; i < s; i++ {
			procOf = append(procOf, p)
			lastOf = append(lastOf, i == s-1)
		}
	}

	ops := make([]spec.Operation, slots)
	idx := 0
	var rec func(slot int)
	rec = func(slot int) {
		if slot == slots {
			b := history.NewBuilder(cfg.ADT)
			for i, op := range ops {
				if cfg.Omega && lastOf[i] && !cfg.ADT.IsUpdate(op.In) {
					b.AppendOmega(procOf[i], op)
				} else {
					b.Append(procOf[i], op)
				}
			}
			out <- check.BatchItem{Index: idx, H: b.Build()}
			idx++
			return
		}
		for _, in := range cfg.Inputs {
			for _, o := range cfg.OutputsFor(in) {
				ops[slot] = spec.NewOp(in, o)
				rec(slot + 1)
			}
		}
	}
	rec(0)
	return nil
}

// RegisterDomain is the standard output enumerator for the register
// ADT with values in [0, maxVal]: writes return ⊥, reads range over
// the default 0 and every writable value.
func RegisterDomain(maxVal int) func(in spec.Input) []spec.Output {
	return func(in spec.Input) []spec.Output {
		if in.Method == "w" {
			return []spec.Output{spec.Bot}
		}
		outs := make([]spec.Output, 0, maxVal+1)
		for v := 0; v <= maxVal; v++ {
			outs = append(outs, spec.IntOutput(v))
		}
		return outs
	}
}

// WindowDomain enumerates outputs for the window-stream ADT of size 2
// with values in [0, maxVal]: writes return ⊥, reads range over all
// pairs.
func WindowDomain(maxVal int) func(in spec.Input) []spec.Output {
	return func(in spec.Input) []spec.Output {
		if in.Method == "w" {
			return []spec.Output{spec.Bot}
		}
		var outs []spec.Output
		for a := 0; a <= maxVal; a++ {
			for b := 0; b <= maxVal; b++ {
				outs = append(outs, spec.TupleOutput(a, b))
			}
		}
		return outs
	}
}

// FormatTable renders the census as the experiment table: one row per
// criterion with admitted counts and fractions, then the profile
// distribution. A nil criteria list means the criteria of the run.
func (r *Result) FormatTable(criteria []check.Criterion) string {
	if criteria == nil {
		criteria = r.Criteria
	}
	var b strings.Builder
	fmt.Fprintf(&b, "histories: %d\n", r.Total)
	fmt.Fprintf(&b, "%-6s %10s %8s\n", "crit", "admitted", "frac")
	for _, c := range criteria {
		n, ok := r.Counts[c]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%-6s %10d %8.4f\n", c, n, float64(n)/float64(r.Total))
	}
	fmt.Fprintf(&b, "profiles (%d distinct):\n", len(r.Profiles))
	for _, p := range r.Profiles {
		fmt.Fprintf(&b, "  %8d  %s\n", p.Count, p.Key)
	}
	if len(r.Violations) > 0 {
		fmt.Fprintf(&b, "IMPLICATION VIOLATIONS: %d\n", len(r.Violations))
	}
	for _, s := range r.Seps {
		fmt.Fprintf(&b, "separation %v ⊊ %v at history #%d\n", s.Stronger, s.Weaker, s.Index)
	}
	return b.String()
}
