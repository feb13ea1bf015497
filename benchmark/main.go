// Command benchmark is the repository's one benchmark: five named
// workloads, end-to-end metrics measured with tracing off, and a
// separate traced pass for the per-layer metrics. See README.md beside
// this file and BENCHMARK.json at the root of the repository.
//
//	sh benchmark/run.sh                              every workload, end to end
//	sh benchmark/run.sh -trace 1                     every workload, per layer
//	sh benchmark/run.sh -workload read.http -seed 7  one workload; the last line is its JSON result
//	sh benchmark/run.sh -out benchmark/out/result.json
//	sh benchmark/run.sh -compare a.json b.json       apply BENCHMARK.json's bounds to two result files
//	sh benchmark/run.sh -list
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"text/tabwriter"
	"time"
)

// resultFile is the machine-readable outcome of one invocation.
type resultFile struct {
	Go         string   `json:"go"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"GOMAXPROCS"`
	Commit     string   `json:"commit"`
	Seed       int64    `json:"seed"`
	Reps       int      `json:"reps"`
	Seconds    float64  `json:"seconds"`
	Trace      int      `json:"trace"`
	Workloads  []result `json:"workloads"`
	// Claim stays null: the benchmark is the instrument, and claims no
	// gain of its own.
	Claim *string `json:"claim"`
}

// driverLine is the one-line result of a single-workload run.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "run only this workload and print its JSON result as the last line")
	seed := flag.Int64("seed", 1, "workload seed: the same seed generates the same operations")
	seconds := flag.Float64("seconds", 15, "measured seconds per workload, split evenly over the repetitions")
	reps := flag.Int("reps", 5, "repetitions per workload, each on a fresh cluster; metrics are medians over them")
	trace := flag.Int("trace", 0, "1 runs the traced pass (per-layer metrics) in place of the end-to-end repetitions")
	outPath := flag.String("out", "", "also write every metric to this JSON file")
	list := flag.Bool("list", false, "print the workload names and reasons")
	cmp := flag.Bool("compare", false, "compare two result files (arguments: parent.json change.json) under BENCHMARK.json's bounds")
	flag.Parse()

	if *list {
		for _, w := range workloads {
			fmt.Printf("%-14s %s\n", w.Name, w.Why)
		}
		return 0
	}
	root := repoRoot()
	if *cmp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two result files")
			return 2
		}
		return compareFiles(filepath.Join(root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
	}
	if *reps < 1 || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: need -reps >= 1, -seconds > 0 and -trace 0 or 1")
		return 2
	}
	selected := workloads
	if *name != "" {
		w, ok := lookupWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (see -list)\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	outDir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	file := resultFile{
		Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: commit(), Seed: *seed, Reps: *reps, Seconds: *seconds, Trace: *trace,
	}
	repDur := time.Duration(*seconds / float64(*reps) * float64(time.Second))
	ctx := context.Background()
	code := 0
	for _, w := range selected {
		var res result
		var err error
		if *trace == 1 {
			res, err = layers(ctx, w, *seed, repDur, outDir)
		} else {
			res, err = measure(ctx, w, *seed, *reps, repDur)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
		file.Workloads = append(file.Workloads, res)
	}

	printTable(file)
	if *outPath != "" {
		if err := writeJSON(*outPath, file); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if *name != "" {
		// The contract's last line: the bounded metrics with -trace 0,
		// BENCHMARK.json's per-layer metrics with -trace 1.
		defs := endToEnd[:gated]
		if *trace == 1 {
			defs = perLayer[:perLayerGated]
		}
		res := file.Workloads[0]
		line := driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]driverValue)}
		for _, m := range defs {
			line.Metrics[m.Name] = driverValue{Value: res.Metrics[m.Name].Median, Unit: m.Unit}
		}
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Println(string(b))
	}
	return code
}

// printTable prints every metric of every workload, aligned, in the
// order the metric lists define, then each workload's check outcome.
func printTable(file resultFile) {
	fmt.Printf("go=%s nproc=%d GOMAXPROCS=%d commit=%s seed=%d reps=%d seconds=%g trace=%d\n",
		file.Go, file.NProc, file.GOMAXPROCS, file.Commit, file.Seed, file.Reps, file.Seconds, file.Trace)
	defs := endToEnd
	if file.Trace == 1 {
		defs = perLayer
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian\tq1\tq3\tn")
	for _, res := range file.Workloads {
		for _, m := range defs {
			if s, ok := res.Metrics[m.Name]; ok {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.6g\t%d\n", res.Workload, m.Name, s.Unit, s.Median, s.Q1, s.Q3, s.N)
			}
		}
	}
	tw.Flush()
	for _, res := range file.Workloads {
		if res.Correct {
			fmt.Printf("%s: checks ok (%d attempted, %d failed)\n", res.Workload, res.Attempted, res.Failed)
			continue
		}
		fmt.Printf("%s: CHECKS FAILED (%d attempted, %d failed)\n", res.Workload, res.Attempted, res.Failed)
		for _, p := range res.Problems {
			fmt.Printf("  %s\n", p)
		}
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// repoRoot is the nearest directory at or above the working directory
// that holds BENCHMARK.json, so the benchmark finds its files whether
// it is started from the root or from its own directory.
func repoRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return "."
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "BENCHMARK.json")); err == nil {
			return d
		}
		if d == filepath.Dir(d) {
			return dir
		}
	}
}

// commit is the revision the binary was built from, when the build had
// one to stamp.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
