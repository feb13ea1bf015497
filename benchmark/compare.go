package main

// -compare: the parent-versus-change table. It applies the bounds
// BENCHMARK.json fixes to two result files of this program, one row per
// (workload, metric).

import (
	"encoding/json"
	"fmt"
	"os"
	"text/tabwriter"
)

// bound is one end_to_end entry of BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// exactMetrics are counts that repeat exactly from run to run, so any
// increase is a regression and no spread applies.
var exactMetrics = []bound{
	{Name: "error_share", Unit: "share", Better: "lower"},
	{Name: "nodes_per_pass", Unit: "count", Better: "lower"},
}

const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// row is one compared (workload, metric) pair. Worse is the share of
// the parent's median by which the change's median is worse (negative
// when it is better).
type row struct {
	Workload, Metric string
	Parent, Change   stat
	Worse            float64
	Bound            float64
	Verdict          string
}

// judge compares one metric of the parent and the change. A spread
// (interquartile range over median, on either side) wider than the
// bound leaves the pair unresolved rather than unchanged.
func judge(b bound, parent, change stat) (worse float64, verdict string) {
	if parent.Median != 0 {
		worse = (change.Median - parent.Median) / parent.Median
	} else if change.Median != 0 {
		worse = 1
	}
	if b.Better == "higher" {
		worse = -worse
	}
	switch {
	case b.Bound > 0 && max(parent.spread(), change.spread()) > b.Bound:
		return worse, verdictUnresolved
	case worse > b.Bound:
		return worse, verdictRegressed
	}
	return worse, verdictOK
}

// compare judges every metric both results report.
func compare(bounds []bound, parent, change resultFile) []row {
	judged := append(append([]bound(nil), bounds...), exactMetrics...)
	var rows []row
	for _, p := range parent.Workloads {
		for _, c := range change.Workloads {
			if c.Workload != p.Workload {
				continue
			}
			for _, b := range judged {
				ps, ok1 := p.Metrics[b.Name]
				cs, ok2 := c.Metrics[b.Name]
				if !ok1 || !ok2 {
					continue
				}
				worse, verdict := judge(b, ps, cs)
				rows = append(rows, row{p.Workload, b.Name, ps, cs, worse, b.Bound, verdict})
			}
		}
	}
	return rows
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints the table and returns the exit code: 1 when any
// pair regressed.
func compareFiles(benchmarkJSON, parentPath, changePath string) int {
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	var parent, change resultFile
	for path, v := range map[string]any{benchmarkJSON: &spec, parentPath: &parent, changePath: &change} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	rows := compare(spec.EndToEnd, parent, change)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tparent\tchange\tworse\tbound\tspread\tverdict")
	code := 0
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%.1f%%\t%s\n",
			r.Workload, r.Metric, r.Parent.Unit, r.Parent.Median, r.Change.Median,
			100*r.Worse, 100*r.Bound, 100*max(r.Parent.spread(), r.Change.spread()), r.Verdict)
		if r.Verdict == verdictRegressed {
			code = 1
		}
	}
	tw.Flush()
	if len(rows) == 0 {
		fmt.Fprintln(os.Stderr, "benchmark: the two files share no workload and metric")
		return 2
	}
	return code
}
