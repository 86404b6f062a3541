package main

// The experiment table: every table and figure of the paper's evaluation —
// and the three beyond-the-paper studies — is one row, selected by `stemsim
// paper -only NAME[,NAME...]`. A row runs its experiment at the sizes the
// paperRun gives and hands its tables and prose notes to the report
// (params.table / note); selection and section timing happen once, in
// paperVerb.

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/stats"
)

// experiment is one row of the table.
type experiment struct {
	name, title string
	run         func(x *paperRun) error
}

// Rows are in the paper's order; a full run prints them top to bottom.
var rows = []experiment{
	{"fig1", "Figure 1: set-level capacity demand distributions", fig1},
	{"fig2", "Figure 2: synthetic two-set examples", fig2},
	{"fig3", "Figure 3: MPKI vs associativity, baseline schemes", sweeps("fig3", []string{"LRU", "DIP", "PELIFO", "VWAY", "SBC"})},
	{"table2", "Table 2: LRU MPKI of the 15 analogs", comparison("table2", "", "", func(c *experiments.Comparison) *stats.Table { return c.Table2 })},
	{"fig7", "Figure 7: MPKI, 15 analogs x 5 schemes", comparison("fig7", "MPKI", "21.4", func(c *experiments.Comparison) *stats.Table { return c.MPKI })},
	{"fig8", "Figure 8: AMAT, same matrix", comparison("fig8", "AMAT", "13.5", func(c *experiments.Comparison) *stats.Table { return c.AMAT })},
	{"fig9", "Figure 9: CPI, same matrix", comparison("fig9", "CPI", "6.3", func(c *experiments.Comparison) *stats.Table { return c.CPI })},
	{"fig10", "Figure 10: sensitivity sweeps with STEM", sweeps("fig10", nil)},
	{"ablation", "Ablations (beyond the paper): STEM mechanisms and parameters", ablation},
	{"extension", "Extension (beyond the paper): STEM vs the RRIP family", extension},
	{"replicate", "Replication (beyond the paper): seed robustness", replicate},
	{"table3", "Table 3: hardware overhead", table3},
}

func experimentNames() []string {
	names := make([]string, len(rows))
	for i, e := range rows {
		names[i] = e.name
	}
	return names
}

// paperRun is what a row may read: the flags, and the sizes they resolve to.
type paperRun struct {
	*params
	// suite sizes the 15-analog comparison (one run per cell); points
	// sizes everything that runs many cells per analog (the sweeps, the
	// ablations, the extension and the five-seed replication).
	suite, points experiments.RunConfig
	fig1Periods   int
	benches       []string // the analogs of fig1/fig3/fig10
	sweepAssocs   []int

	cmp *experiments.Comparison // computed once for table2 and fig7-9
}

func newPaperRun(p *params) (*paperRun, error) {
	x := &paperRun{
		params:      p,
		suite:       experiments.RunConfig{Warmup: 1_000_000, Measure: 3_000_000},
		points:      experiments.RunConfig{Warmup: 300_000, Measure: 900_000},
		fig1Periods: 1000,
		benches:     []string{"omnetpp", "ammp"},
	}
	if p.quick {
		x.suite = x.points
		x.points = experiments.RunConfig{Warmup: 150_000, Measure: 450_000}
		x.fig1Periods = 100
	}
	for _, rc := range []*experiments.RunConfig{&x.suite, &x.points} {
		rc.Warmup, rc.Measure = cmp.Or(p.warmup, rc.Warmup), cmp.Or(p.measure, rc.Measure)
		rc.Seed, rc.Obs = p.seed, p.obs
	}
	x.fig1Periods = cmp.Or(p.periods, x.fig1Periods)
	if p.bench != "" {
		x.benches = []string{p.bench}
	}
	for _, a := range list(p.assocs) {
		v, err := strconv.Atoi(a)
		if err != nil {
			return nil, fmt.Errorf("bad -assocs: %w", err)
		}
		x.sweepAssocs = append(x.sweepAssocs, v)
	}
	return x, nil
}

// now is the tool's injectable wall clock (nanoseconds). All simulation
// results are seed-deterministic; the clock only times report sections, and
// tests swap it for a fake to pin the printed durations.
var now = func() int64 { return time.Now().UnixNano() } //lint:allow(determinism) tool boundary: wall-clock section timing only, never simulation state

// sectionTimer returns the report's section helper: it prints the banner
// for title and returns a closure that prints the elapsed wall time taken
// from clock when the section finishes.
func sectionTimer(out io.Writer, clock func() int64) func(title string) func() {
	return func(title string) func() {
		start := clock()
		fmt.Fprintf(out, "==== %s ====\n", title)
		return func() { fmt.Fprintf(out, "(%.1fs)\n\n", float64(clock()-start)/1e9) }
	}
}

func paperVerb(p *params) error {
	selected := rows
	if p.only != "" {
		selected = nil
		for _, name := range list(p.only) {
			i := slices.IndexFunc(rows, func(e experiment) bool { return strings.EqualFold(e.name, name) })
			if i < 0 {
				return fmt.Errorf("paper: unknown experiment %q in -only (valid: %s)", name, strings.Join(experimentNames(), ", "))
			}
			selected = append(selected, rows[i])
		}
	}
	x, err := newPaperRun(p)
	if err != nil {
		return fmt.Errorf("paper: %w", err)
	}
	banners := p.w
	if p.csv {
		banners = io.Discard // a CSV stream carries tables only
	}
	section := sectionTimer(banners, now)
	for _, e := range selected {
		done := section(e.title)
		if err := e.run(x); err != nil {
			return fmt.Errorf("paper %s: %w", e.name, err)
		}
		if p.err != nil {
			return p.err
		}
		done()
	}
	return nil
}

func fig1(x *paperRun) error {
	var results []experiments.Fig1Result
	for _, b := range x.benches {
		r, err := experiments.Figure1(experiments.Fig1Config{Benchmark: b, Periods: x.fig1Periods, Seed: x.seed, Obs: x.obs})
		if err != nil {
			return err
		}
		results = append(results, r)
	}
	x.table("fig1", experiments.Fig1Table(results...))
	return nil
}

func fig2(x *paperRun) error {
	t := stats.NewTable("Figure 2: steady-state miss rates, measured vs the paper's analytical values",
		"example", "LRU", "LRU paper", "DIP", "DIP paper", "SBC", "SBC paper", "STEM")
	for _, r := range experiments.Figure2(x.seed) {
		for i, v := range []float64{r.LRU, r.ExpLRU, r.DIP, r.ExpDIP, r.SBC, r.ExpSBC, r.STEM} {
			t.Set(fmt.Sprintf("#%d", r.Example), t.Cols[i], v)
		}
	}
	x.table("fig2", t)
	x.note("(paper DIP column assumes oracle knowledge of the working sets;\n STEM on #2 is the paper's 'extensional example')")
	return nil
}

// sweeps builds the row for one associativity-sweep figure: a panel per
// analog over defSchemes (nil: all six), both overridable by -bench,
// -schemes and -assocs.
func sweeps(name string, defSchemes []string) func(*paperRun) error {
	return func(x *paperRun) error {
		for _, b := range x.benches {
			t, err := experiments.Sweep(experiments.SweepConfig{Benchmark: b, Schemes: x.schemeList(defSchemes), Assocs: x.sweepAssocs, Run: x.points})
			if err != nil {
				return err
			}
			x.table(name+"_"+b, t)
		}
		return nil
	}
}

// comparison builds the row for one view of the 15-analog matrix. For a
// normalized metric, paperGain is the paper's STEM-over-LRU geomean
// improvement in percent, printed beside the measured one.
func comparison(name, metric, paperGain string, view func(*experiments.Comparison) *stats.Table) func(*paperRun) error {
	return func(x *paperRun) (err error) {
		if x.cmp == nil {
			if x.cmp, err = experiments.MainComparison(x.suite); err != nil {
				return err
			}
		}
		t := view(x.cmp)
		x.table(name, t)
		if g, ok := t.Get("Geomean", "STEM"); ok {
			x.note("STEM geomean %s improvement over LRU: %.1f%% (paper: %s%%)", metric, 100*(1-g), paperGain)
		}
		return nil
	}
}

func ablation(x *paperRun) error {
	t, err := experiments.Ablate(experiments.ComponentVariants(), nil, x.points)
	if err != nil {
		return err
	}
	x.table("ablation_components", t)
	for _, param := range []string{"k", "n", "m", "heap"} {
		vs, err := experiments.ParameterVariants(param)
		if err != nil {
			return err
		}
		t, err := experiments.Ablate(vs, []string{"omnetpp", "ammp"}, x.points)
		if err != nil {
			return err
		}
		x.table("ablation_"+param, t)
	}
	return nil
}

func extension(x *paperRun) error {
	t, err := experiments.ExtensionComparison(x.points)
	if err != nil {
		return err
	}
	x.table("extension", t)
	return nil
}

func replicate(x *paperRun) error {
	res, err := experiments.Replicate(x.points, []uint64{0x57E4, 1, 2, 3, 4})
	if err != nil {
		return err
	}
	x.table("replicate", experiments.ReplicationTable(res))
	return nil
}

func table3(x *paperRun) error {
	r := experiments.Table3()
	t := stats.NewTable("Table 3: storage STEM adds to a 2MB / 16-way / 44-bit-address LRU cache", "field", "value")
	bits := func(field string, n int) { t.Set(field, "value", float64(n)) }
	bits("tag bits per line", r.TagBits)
	bits("rank bits per line", r.RankBits)
	bits("CC bits", r.CCBits)
	bits("shadow store bits", r.ShadowBits)
	bits("counter bits", r.CounterBits)
	bits("assoc table bits", r.AssocTableBits)
	bits("selector heap bits", r.HeapBits)
	bits("total extra bits", r.ExtraBits())
	bits("baseline bits", r.BaselineDataBits+r.BaselineTagBits)
	t.Set("overhead %", "value", 100*r.OverheadFraction)
	x.table("table3", t)
	x.note("(10-bit shadow signatures; paper: 3.1%%)")
	return nil
}
