package main

import (
	"math"
	"sort"
)

// stat summarizes one metric over the repetitions of one workload.
// Reps keeps the per-repetition values, so a reader can recompute any
// summary; a traced pass has a single repetition (N == 1).
type stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Reps   []float64 `json:"reps"`
}

func newStat(unit string, reps []float64) stat {
	q1, med, q3 := quartiles(reps)
	return stat{Unit: unit, Median: med, Q1: q1, Q3: q3, N: len(reps), Reps: reps}
}

// spread is the interquartile range as a share of the median — the
// run-to-run noise a regression bound is judged against.
func (s stat) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(values, n=4, method="inclusive"): the values are
// taken as the whole population, so the quartiles of five repetitions
// are the second, third and fourth value. (The exclusive method, which
// the benchmark's driver applies to its ten runs, puts the outer
// quartiles of five values halfway to the extremes, where one stalled
// repetition decides them.) A single value has no spread: all three cut
// points are the value itself.
func quartiles(values []float64) (q1, med, q3 float64) {
	n := len(values)
	if n == 0 {
		return 0, 0, 0
	}
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	if n == 1 {
		return data[0], data[0], data[0]
	}
	cut := func(i int) float64 {
		j, delta := i*(n-1)/4, float64(i*(n-1)%4)
		return (data[j]*(4-delta) + data[min(j+1, n-1)]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
