// Command ccclassify is the batch front end of the checkers: it
// streams many histories through cc/checker's Classifier (the bounded
// worker pool of the engine's batch classifier) and emits one JSON
// object per history, in input order, as results become available.
//
// Usage:
//
//	ccclassify [flags] [file|dir ...]
//	ccclassify -list
//
// Each argument is a history file in the parser's format, or a
// directory walked for *.txt files (*.timed.txt files are skipped —
// they are interval histories for ccheck -timed). With no arguments a
// single history is read from stdin.
//
// Flags:
//
//	-workers N        histories classified concurrently (default GOMAXPROCS)
//	-timeout D        per-criterion wall clock, e.g. 2s (default none)
//	-max-nodes N      per-criterion search budget (default checker.DefaultBudget)
//	-criteria LIST    comma-separated subset of the registered criteria
//	                  (default all; -list prints the registry)
//
// Output (one line per history):
//
//	{"index":0,"name":"fig3c.txt","results":{"SC":{"satisfied":false,...}},...}
//
// A criterion that exceeds its budget carries "exhausted":"budget", a
// timed-out one "exhausted":"timeout"; neither aborts the batch. The
// exit status is 1 if any history failed to parse or any checker
// returned a hard error, 0 otherwise (timeouts and budget exhaustion
// are reported data, not failures).
//
// The -criteria names are resolved through cc/checker's registry, so
// a build that registers extra criteria classifies against them too.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"github.com/paper-repro/ccbm/cc/checker"
	"github.com/paper-repro/ccbm/cc/histories"
)

type critResult struct {
	Satisfied  *bool  `json:"satisfied,omitempty"`
	Exhausted  string `json:"exhausted,omitempty"` // "budget", "timeout", "canceled"
	Error      string `json:"error,omitempty"`
	ExploredN  int64  `json:"explored_nodes"`
	ElapsedNs  int64  `json:"elapsed_ns"`
	hardFailed bool
}

type histResult struct {
	Index      int                   `json:"index"`
	Name       string                `json:"name"`
	Error      string                `json:"error,omitempty"` // parse error
	Results    map[string]critResult `json:"results,omitempty"`
	Profile    string                `json:"profile,omitempty"` // satisfied criteria, weakest first
	Violations []string              `json:"lattice_violations,omitempty"`
}

// collect expands the arguments into named history texts. Unreadable
// files surface as items with a load error so the batch keeps going.
type source struct {
	name string
	text string
	err  error
}

func collect(args []string) []source {
	if len(args) == 0 {
		data, err := io.ReadAll(os.Stdin)
		return []source{{name: "stdin", text: string(data), err: err}}
	}
	var out []source
	addFile := func(path string) {
		data, err := os.ReadFile(path)
		out = append(out, source{name: path, text: string(data), err: err})
	}
	for _, arg := range args {
		st, err := os.Stat(arg)
		if err != nil {
			out = append(out, source{name: arg, err: err})
			continue
		}
		if !st.IsDir() {
			addFile(arg)
			continue
		}
		err = filepath.WalkDir(arg, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".txt") || strings.HasSuffix(path, ".timed.txt") {
				return nil
			}
			addFile(path)
			return nil
		})
		if err != nil {
			out = append(out, source{name: arg, err: err})
		}
	}
	return out
}

func render(r checker.ItemResult, parseErr error) histResult {
	hr := histResult{Index: r.Item.Index, Name: r.Item.Name}
	if parseErr != nil {
		hr.Error = parseErr.Error()
		return hr
	}
	hr.Results = make(map[string]critResult, len(r.Results))
	for name, res := range r.Results {
		cr := critResult{
			Exhausted: string(res.Exhausted),
			ExploredN: res.Explored,
			ElapsedNs: res.Elapsed.Nanoseconds(),
		}
		if res.Err != nil && res.Exhausted != checker.CauseBudget {
			cr.Error = res.Err.Error()
			cr.hardFailed = true
		} else if res.Exhausted == "" {
			sat := res.Satisfied
			cr.Satisfied = &sat
		}
		hr.Results[name] = cr
	}
	hr.Profile = strings.Join(r.Profile, " ")
	for _, v := range r.LatticeViolations {
		hr.Violations = append(hr.Violations, fmt.Sprintf("%s=>%s", v[0], v[1]))
	}
	return hr
}

func main() {
	workers := flag.Int("workers", 0, "histories classified concurrently (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "per-criterion wall-clock timeout (0 = none)")
	maxNodes := flag.Int("max-nodes", 0, "per-criterion search budget (0 = default)")
	criteriaList := flag.String("criteria", "", "comma-separated criteria subset (default all registered)")
	list := flag.Bool("list", false, "list the registered criteria and exit")
	flag.Parse()

	if *list {
		for _, c := range checker.All() {
			doc := c.Doc
			if c.MemoryOnly {
				doc += " [memory only]"
			}
			fmt.Printf("%-4s %s\n", c.Name, doc)
		}
		return
	}

	opts := []checker.Option{
		checker.WithBudget(*maxNodes),
		checker.WithTimeout(*timeout),
		checker.WithWorkers(*workers),
	}
	if *criteriaList != "" {
		var names []string
		for _, name := range strings.Split(*criteriaList, ",") {
			names = append(names, strings.TrimSpace(name))
		}
		opts = append(opts, checker.WithCriteria(names...))
	}

	// Load and parse everything up front (cheap next to checking);
	// parse failures bypass the classifier and are rendered in place
	// when their turn in the output order comes.
	srcs := collect(flag.Args())
	parseErrs := make([]error, len(srcs))
	items := make([]checker.Item, 0, len(srcs))
	for i, s := range srcs {
		if s.err != nil {
			parseErrs[i] = s.err
			continue
		}
		h, err := histories.Parse(s.text)
		if err != nil {
			parseErrs[i] = err
			continue
		}
		items = append(items, checker.Item{Index: i, Name: s.name, H: h})
	}
	in := make(chan checker.Item)
	go func() {
		defer close(in)
		for _, it := range items {
			in <- it
		}
	}()

	results, err := checker.NewClassifier(opts...).Stream(context.Background(), in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccclassify:", err)
		os.Exit(2)
	}

	// Reorder into input order, emitting each line as soon as its
	// predecessors are out.
	enc := json.NewEncoder(os.Stdout)
	pending := make(map[int]histResult)
	nextIdx := 0
	hardFail := false
	flush := func() {
		for {
			hr, ok := pending[nextIdx]
			if !ok {
				// A parse failure never enters the classifier; render it
				// here the moment its turn comes.
				if nextIdx < len(srcs) && parseErrs[nextIdx] != nil {
					hr = render(checker.ItemResult{Item: checker.Item{Index: nextIdx, Name: srcs[nextIdx].name}}, parseErrs[nextIdx])
				} else {
					return
				}
			}
			delete(pending, nextIdx)
			if hr.Error != "" {
				hardFail = true
			}
			for _, cr := range hr.Results {
				if cr.hardFailed {
					hardFail = true
				}
			}
			if err := enc.Encode(hr); err != nil {
				fmt.Fprintln(os.Stderr, "ccclassify:", err)
				os.Exit(1)
			}
			nextIdx++
		}
	}
	for r := range results {
		pending[r.Item.Index] = render(r, nil)
		flush()
	}
	flush()
	if nextIdx != len(srcs) {
		fmt.Fprintf(os.Stderr, "ccclassify: internal: emitted %d of %d results\n", nextIdx, len(srcs))
		os.Exit(1)
	}
	if hardFail {
		os.Exit(1)
	}
}
