package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// A run set is what -json accumulates: every run of one commit, several per
// workload when the suite was invoked several times.
type runSet struct {
	Runs []*result `json:"runs"`
}

func readRunSet(path string) (*runSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs runSet
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

func appendRuns(path string, runs []*result) error {
	rs, err := readRunSet(path)
	if errors.Is(err, fs.ErrNotExist) {
		rs = &runSet{}
	} else if err != nil {
		return err
	}
	rs.Runs = append(rs.Runs, runs...)
	b, err := json.MarshalIndent(rs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// values collects one metric of one workload's untraced runs.
func (rs *runSet) values(workload, metric string) (out []float64) {
	for _, r := range rs.Runs {
		if v, ok := r.M[metric]; ok && r.Workload == workload && !r.Traced {
			out = append(out, v)
		}
	}
	return out
}

// verdict judges one (workload, metric) pair of run set b against run set a
// under the metric's bound: "regressed" when b's median is worse than a's by
// more than the bound; "unresolved" when either side's own spread (the
// distance between its quartiles, as a share of its median) is wider than
// the bound, unless every run of b reads better than every run of a; "ok"
// otherwise.
func verdict(d metricDef, a, b []float64) (v string, change, spread float64) {
	ma, mb := median(a), median(b)
	worse := func(x, y float64) bool { // x worse than y
		if d.Better == "higher" {
			return x < y
		}
		return x > y
	}
	if ma != 0 {
		change = (mb - ma) / ma
		if d.Better == "higher" {
			change = -change
		}
	}
	for _, side := range [][]float64{a, b} {
		if q1, q3 := quartiles(side); median(side) != 0 {
			spread = max(spread, (q3-q1)/median(side))
		}
	}
	if spread > d.Bound {
		allBetter := true
		for _, x := range b {
			for _, y := range a {
				allBetter = allBetter && worse(y, x)
			}
		}
		if !allBetter {
			return "unresolved", change, spread
		}
	}
	if change > d.Bound {
		return "regressed", change, spread
	}
	return "ok", change, spread
}

// compareFiles prints one row per (workload, end-to-end metric) and fails on
// any regression or on a fail_rate above the parent's.
func compareFiles(pathA, pathB string) error {
	a, err := readRunSet(pathA)
	if err != nil {
		return err
	}
	b, err := readRunSet(pathB)
	if err != nil {
		return err
	}
	bad := 0
	fmt.Printf("%-12s %-14s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "median A", "median B", "worse by", "spread", "bound", "verdict")
	for _, w := range suite {
		for _, d := range endToEnd {
			va, vb := a.values(w.name, d.Name), b.values(w.name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, change, spread := verdict(d, va, vb)
			if v == "regressed" {
				bad++
			}
			fmt.Printf("%-12s %-14s %14.4f %14.4f %+8.1f%% %7.1f%% %6.0f%%  %s\n",
				w.name, d.Name, median(va), median(vb), 100*change, 100*spread, 100*d.Bound, v)
		}
		fa, fb := a.values(w.name, "fail_rate"), b.values(w.name, "fail_rate")
		if len(fa) > 0 && len(fb) > 0 {
			v := "ok"
			if maxOf(fb) > maxOf(fa) {
				v = "regressed"
				bad++
			}
			fmt.Printf("%-12s %-14s %14.6f %14.6f %9s %8s %7s  %s\n", w.name, "fail_rate", maxOf(fa), maxOf(fb), "", "", "any", v)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d regressed", bad)
	}
	return nil
}

func maxOf(v []float64) float64 {
	m := v[0]
	for _, x := range v {
		m = max(m, x)
	}
	return m
}
