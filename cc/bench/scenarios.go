package bench

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"github.com/paper-repro/ccbm/cc"
	"github.com/paper-repro/ccbm/internal/workload"
)

// The built-in scenarios. Each declares its shape in Profile() —
// blurr-style op percentages, realized with a single uniform draw per
// op so the realized mix matches the declared one exactly in
// expectation (the scenario statistical test holds them to it).
func init() {
	MustRegister(func() Workload { return &readHeavy{} })
	MustRegister(func() Workload { return &writeHeavy{} })
	MustRegister(func() Workload { return &sessionCart{} })
	MustRegister(func() Workload { return &insertGrow{} })
	MustRegister(func() Workload { return &scanRange{} })
	MustRegister(func() Workload { return &mixed{} })
}

// pickKind draws one mix entry with a single uniform variate.
func pickKind(rng *rand.Rand, mix []MixEntry) MixEntry {
	u := rng.Float64()
	acc := 0.0
	for _, m := range mix {
		acc += m.Fraction
		if u < acc {
			return m
		}
	}
	return mix[len(mix)-1]
}

// ---------------------------------------------------------------- //

// readHeavy is the cache shape: a zipf-hot Register/GSet population,
// 95% reads.
type readHeavy struct {
	objs []ObjectSpec
}

func (w *readHeavy) Name() string { return "read-heavy" }
func (w *readHeavy) Doc() string {
	return "read-heavy cache: 95% reads over a zipf-hot Register/GSet population"
}

func (w *readHeavy) Profile() Profile {
	return Profile{
		ADTs: []string{"Register", "GSet"},
		Dist: KeyZipf, Skew: 1.1,
		Mix: []MixEntry{
			{Kind: "read", Fraction: 0.95},
			{Kind: "write", Fraction: 0.05, Update: true},
		},
	}
}

func (w *readHeavy) Init(cfg Config) error {
	cfg.fill()
	w.objs = make([]ObjectSpec, cfg.Objects)
	for i := range w.objs {
		adt := "Register"
		if i%2 == 1 {
			adt = "GSet"
		}
		w.objs[i] = ObjectSpec{Name: fmt.Sprintf("cache-%03d", i), ADT: adt}
	}
	return nil
}

func (w *readHeavy) Objects() []ObjectSpec { return w.objs }

func (w *readHeavy) NewWorker(id int, rng *rand.Rand) Worker {
	return &readHeavyWorker{w: w, rng: rng, pick: NewChooser(KeyZipf, 1.1, rng)}
}

type readHeavyWorker struct {
	w    *readHeavy
	rng  *rand.Rand
	pick Chooser
}

func (wk *readHeavyWorker) NextOp(step int) Op {
	kind := pickKind(wk.rng, wk.w.Profile().Mix)
	obj := wk.w.objs[wk.pick(len(wk.w.objs))]
	op := Op{Object: obj.Name, ADT: obj.ADT, Update: kind.Update, Kind: kind.Kind}
	switch {
	case kind.Kind == "write" && obj.ADT == "Register":
		op.Input = newInput("w", step+1)
	case kind.Kind == "write": // GSet
		op.Input = newInput("add", wk.rng.Intn(64))
	case obj.ADT == "Register":
		op.Input = newInput("r")
	case wk.rng.Intn(2) == 0:
		op.Input = newInput("has", wk.rng.Intn(64))
	default:
		op.Input = newInput("elems")
	}
	return op
}

// ---------------------------------------------------------------- //

// writeHeavy is the counter fleet: every object a Counter, uniform
// popularity, 80% updates.
type writeHeavy struct {
	objs []ObjectSpec
}

func (w *writeHeavy) Name() string { return "write-heavy" }
func (w *writeHeavy) Doc() string {
	return "write-heavy counter fleet: 80% inc/dec updates on uniform Counters"
}

func (w *writeHeavy) Profile() Profile {
	return Profile{
		ADTs: []string{"Counter"},
		Dist: KeyUniform,
		Mix: []MixEntry{
			{Kind: "inc", Fraction: 0.50, Update: true},
			{Kind: "dec", Fraction: 0.30, Update: true},
			{Kind: "read", Fraction: 0.20},
		},
	}
}

func (w *writeHeavy) Init(cfg Config) error {
	cfg.fill()
	w.objs = make([]ObjectSpec, cfg.Objects)
	for i := range w.objs {
		w.objs[i] = ObjectSpec{Name: fmt.Sprintf("ctr-%03d", i), ADT: "Counter"}
	}
	return nil
}

func (w *writeHeavy) Objects() []ObjectSpec { return w.objs }

func (w *writeHeavy) NewWorker(id int, rng *rand.Rand) Worker {
	return &writeHeavyWorker{w: w, rng: rng, pick: NewChooser(KeyUniform, 0, rng)}
}

type writeHeavyWorker struct {
	w    *writeHeavy
	rng  *rand.Rand
	pick Chooser
}

func (wk *writeHeavyWorker) NextOp(step int) Op {
	kind := pickKind(wk.rng, wk.w.Profile().Mix)
	obj := wk.w.objs[wk.pick(len(wk.w.objs))]
	op := Op{Object: obj.Name, ADT: obj.ADT, Update: kind.Update, Kind: kind.Kind}
	switch kind.Kind {
	case "inc":
		op.Input = newInput("inc", 1+wk.rng.Intn(3))
	case "dec":
		op.Input = newInput("dec", 1+wk.rng.Intn(2))
	default:
		op.Input = newInput("get")
	}
	return op
}

// ---------------------------------------------------------------- //

// sessionCart gives every worker its own RWSet cart whose views
// depend on the session's own adds (read-your-writes is load-bearing:
// an affinity read right after an add must observe it), plus a shared
// GSet catalog the sessions browse and occasionally restock.
type sessionCart struct {
	carts    []ObjectSpec
	catalogs []ObjectSpec
}

func (w *sessionCart) Name() string { return "session-cart" }
func (w *sessionCart) Doc() string {
	return "session carts with read-your-writes dependence over a shared catalog"
}

func (w *sessionCart) Profile() Profile {
	return Profile{
		ADTs: []string{"RWSet", "GSet"},
		Dist: KeyUniform,
		Mix: []MixEntry{
			{Kind: "cart-add", Fraction: 0.25, Update: true},
			{Kind: "cart-del", Fraction: 0.05, Update: true},
			{Kind: "cart-view", Fraction: 0.35},
			{Kind: "catalog-browse", Fraction: 0.30},
			{Kind: "catalog-stock", Fraction: 0.05, Update: true},
		},
	}
}

func (w *sessionCart) Init(cfg Config) error {
	cfg.fill()
	w.carts = make([]ObjectSpec, cfg.Workers)
	for i := range w.carts {
		w.carts[i] = ObjectSpec{Name: fmt.Sprintf("cart-w%02d", i), ADT: "RWSet"}
	}
	w.catalogs = make([]ObjectSpec, cfg.Objects)
	for i := range w.catalogs {
		w.catalogs[i] = ObjectSpec{Name: fmt.Sprintf("catalog-%02d", i), ADT: "GSet"}
	}
	return nil
}

func (w *sessionCart) Objects() []ObjectSpec {
	return append(append([]ObjectSpec(nil), w.carts...), w.catalogs...)
}

func (w *sessionCart) NewWorker(id int, rng *rand.Rand) Worker {
	return &sessionCartWorker{
		w: w, rng: rng,
		cart: w.carts[id%len(w.carts)].Name,
		pick: NewChooser(KeyUniform, 0, rng),
	}
}

type sessionCartWorker struct {
	w    *sessionCart
	rng  *rand.Rand
	cart string
	pick Chooser
}

func (wk *sessionCartWorker) NextOp(step int) Op {
	kind := pickKind(wk.rng, wk.w.Profile().Mix)
	op := Op{Update: kind.Update, Kind: kind.Kind}
	switch kind.Kind {
	case "cart-add":
		op.Object, op.ADT = wk.cart, "RWSet"
		op.Input = newInput("add", wk.rng.Intn(128))
	case "cart-del":
		op.Object, op.ADT = wk.cart, "RWSet"
		op.Input = newInput("rem", wk.rng.Intn(128))
	case "cart-view":
		op.Object, op.ADT = wk.cart, "RWSet"
		op.Input = newInput("elems")
	case "catalog-stock":
		cat := wk.w.catalogs[wk.pick(len(wk.w.catalogs))]
		op.Object, op.ADT = cat.Name, cat.ADT
		op.Input = newInput("add", wk.rng.Intn(64))
	default: // catalog-browse
		cat := wk.w.catalogs[wk.pick(len(wk.w.catalogs))]
		op.Object, op.ADT = cat.Name, cat.ADT
		if wk.rng.Intn(2) == 0 {
			op.Input = newInput("has", wk.rng.Intn(64))
		} else {
			op.Input = newInput("elems")
		}
	}
	return op
}

// ---------------------------------------------------------------- //

// insertGrow is the growing-keyspace shape (YCSB "latest"): inserts
// mint brand-new Register objects mid-run, and reads skew toward the
// most recently inserted keys.
type insertGrow struct {
	objs  []ObjectSpec
	count atomic.Int64 // keys minted so far (shared across workers)
}

func (w *insertGrow) Name() string { return "insert-grow" }
func (w *insertGrow) Doc() string {
	return "growing keyspace: inserts mint new Registers, reads skew to the latest keys"
}

func (w *insertGrow) Profile() Profile {
	return Profile{
		ADTs: []string{"Register"},
		Dist: KeyLatest, Skew: 1.1,
		Mix: []MixEntry{
			{Kind: "insert", Fraction: 0.05, Update: true},
			{Kind: "update", Fraction: 0.15, Update: true},
			{Kind: "read", Fraction: 0.80},
		},
	}
}

func growName(i int64) string { return fmt.Sprintf("grow-%05d", i) }

func (w *insertGrow) Init(cfg Config) error {
	cfg.fill()
	w.objs = make([]ObjectSpec, cfg.Objects)
	for i := range w.objs {
		w.objs[i] = ObjectSpec{Name: growName(int64(i)), ADT: "Register"}
	}
	w.count.Store(int64(cfg.Objects))
	return nil
}

func (w *insertGrow) Objects() []ObjectSpec { return w.objs }

func (w *insertGrow) NewWorker(id int, rng *rand.Rand) Worker {
	return &insertGrowWorker{w: w, rng: rng, pick: NewChooser(KeyLatest, 1.1, rng)}
}

type insertGrowWorker struct {
	w    *insertGrow
	rng  *rand.Rand
	pick Chooser
}

func (wk *insertGrowWorker) NextOp(step int) Op {
	kind := pickKind(wk.rng, wk.w.Profile().Mix)
	op := Op{ADT: "Register", Update: kind.Update, Kind: kind.Kind}
	switch kind.Kind {
	case "insert":
		n := wk.w.count.Add(1) - 1
		op.Object, op.Create = growName(n), true
		op.Input = newInput("w", step+1)
	default:
		// A key past the initial population may have been minted by
		// another worker whose create has not landed yet: carry Create
		// too (creation is idempotent) so the op cannot miss its object.
		n := wk.pick(int(wk.w.count.Load()))
		op.Object, op.Create = growName(int64(n)), n >= len(wk.w.objs)
		op.Input = newInput("r")
		if kind.Kind == "update" {
			op.Input = newInput("w", step+1)
		}
	}
	return op
}

// ---------------------------------------------------------------- //

// scanRange exercises the scan/range shapes: full reads of Sequence
// objects (ordered scans) and GSet element dumps, against positional
// inserts and deletes.
type scanRange struct {
	seqs []ObjectSpec
	sets []ObjectSpec
}

func (w *scanRange) Name() string { return "scan-range" }
func (w *scanRange) Doc() string {
	return "scan/range ops: Sequence scans and positional ins/del, GSet dumps"
}

func (w *scanRange) Profile() Profile {
	return Profile{
		ADTs: []string{"Sequence", "GSet"},
		Dist: KeyZipf, Skew: 1.1,
		Mix: []MixEntry{
			{Kind: "scan", Fraction: 0.50},
			{Kind: "insert", Fraction: 0.25, Update: true},
			{Kind: "delete", Fraction: 0.10, Update: true},
			{Kind: "member", Fraction: 0.10},
			{Kind: "stock", Fraction: 0.05, Update: true},
		},
	}
}

func (w *scanRange) Init(cfg Config) error {
	cfg.fill()
	nSeq := (cfg.Objects + 1) / 2
	nSet := cfg.Objects - nSeq
	if nSet == 0 {
		nSet = 1
	}
	w.seqs = make([]ObjectSpec, nSeq)
	for i := range w.seqs {
		w.seqs[i] = ObjectSpec{Name: fmt.Sprintf("seq-%03d", i), ADT: "Sequence"}
	}
	w.sets = make([]ObjectSpec, nSet)
	for i := range w.sets {
		w.sets[i] = ObjectSpec{Name: fmt.Sprintf("set-%03d", i), ADT: "GSet"}
	}
	return nil
}

func (w *scanRange) Objects() []ObjectSpec {
	return append(append([]ObjectSpec(nil), w.seqs...), w.sets...)
}

func (w *scanRange) NewWorker(id int, rng *rand.Rand) Worker {
	return &scanRangeWorker{
		w: w, rng: rng,
		pickSeq: NewChooser(KeyZipf, 1.1, rng),
		pickSet: NewChooser(KeyZipf, 1.1, rng),
	}
}

type scanRangeWorker struct {
	w                *scanRange
	rng              *rand.Rand
	pickSeq, pickSet Chooser
}

func (wk *scanRangeWorker) NextOp(step int) Op {
	kind := pickKind(wk.rng, wk.w.Profile().Mix)
	op := Op{Update: kind.Update, Kind: kind.Kind}
	seq := func() ObjectSpec { return wk.w.seqs[wk.pickSeq(len(wk.w.seqs))] }
	set := func() ObjectSpec { return wk.w.sets[wk.pickSet(len(wk.w.sets))] }
	switch kind.Kind {
	case "insert":
		o := seq()
		op.Object, op.ADT = o.Name, o.ADT
		op.Input = newInput("ins", wk.rng.Intn(step+1), 'a'+wk.rng.Intn(26))
	case "delete":
		o := seq()
		op.Object, op.ADT = o.Name, o.ADT
		op.Input = newInput("del", wk.rng.Intn(step+1))
	case "member":
		o := set()
		op.Object, op.ADT = o.Name, o.ADT
		op.Input = newInput("has", wk.rng.Intn(64))
	case "stock":
		o := set()
		op.Object, op.ADT = o.Name, o.ADT
		op.Input = newInput("add", wk.rng.Intn(64))
	default: // scan
		if wk.rng.Intn(2) == 0 {
			o := seq()
			op.Object, op.ADT = o.Name, o.ADT
			op.Input = newInput("read")
		} else {
			o := set()
			op.Object, op.ADT = o.Name, o.ADT
			op.Input = newInput("elems")
		}
	}
	return op
}

// ---------------------------------------------------------------- //

// mixedADTs is the mixed population: one exact-checkable type per
// family (commutative, register, sets, window'd queue, stack).
var mixedADTs = []string{"Counter", "Register", "GSet", "RWSet", "Queue2", "Stack"}

// mixed is the general-purpose default of ccload and ccchaos: the six
// mixedADTs cycled by object index, zipf-popular, 30% updates drawn by
// the engine's own per-ADT generators. Kind says whether the ADT
// classifies the drawn input as an update.
type mixed struct {
	objs  []ObjectSpec
	types []cc.ADT
	gens  []workload.OpGen
}

func (w *mixed) Name() string { return "mixed" }
func (w *mixed) Doc() string {
	return "mixed ADTs: Counter/Register/GSet/RWSet/Queue2/Stack, zipf, 30% updates"
}

func (w *mixed) Profile() Profile {
	return Profile{
		ADTs: mixedADTs,
		Dist: KeyZipf, Skew: 1.1,
		Mix: []MixEntry{
			{Kind: "read", Fraction: 0.70},
			{Kind: "write", Fraction: 0.30, Update: true},
		},
	}
}

func (w *mixed) Init(cfg Config) error {
	cfg.fill()
	w.objs = make([]ObjectSpec, cfg.Objects)
	w.types = make([]cc.ADT, cfg.Objects)
	w.gens = make([]workload.OpGen, cfg.Objects)
	for i := range w.objs {
		name := mixedADTs[i%len(mixedADTs)]
		t, err := cc.LookupADT(name)
		if err != nil {
			return err
		}
		if w.gens[i], err = workload.GeneratorFor(t, 0.30); err != nil {
			return err
		}
		w.objs[i] = ObjectSpec{Name: fmt.Sprintf("obj-%03d", i), ADT: name}
		w.types[i] = t
	}
	return nil
}

func (w *mixed) Objects() []ObjectSpec { return w.objs }

func (w *mixed) NewWorker(id int, rng *rand.Rand) Worker {
	return &mixedWorker{w: w, rng: rng, pick: NewChooser(KeyZipf, 1.1, rng)}
}

type mixedWorker struct {
	w    *mixed
	rng  *rand.Rand
	pick Chooser
}

func (wk *mixedWorker) NextOp(step int) Op {
	i := wk.pick(len(wk.w.objs))
	obj := wk.w.objs[i]
	op := Op{Object: obj.Name, ADT: obj.ADT, Input: wk.w.gens[i](wk.rng, step), Kind: "read"}
	if wk.w.types[i].IsUpdate(op.Input) {
		op.Update, op.Kind = true, "write"
	}
	return op
}
