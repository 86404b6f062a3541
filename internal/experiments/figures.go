package experiments

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// ---------------------------------------------------------------------------
// Figure 1 — distribution of set-level capacity demands over sampling
// periods (omnetpp and ammp analogs).
// ---------------------------------------------------------------------------

// Fig1Config parameterizes the characterization of §3.1.
type Fig1Config struct {
	Benchmark string // "omnetpp" or "ammp" in the paper; any analog works
	Periods   int    // paper: 1000
	PerPeriod int    // accesses per period; paper: 50 000
	MaxWays   int    // associativity horizon; paper: 32
	Seed      uint64
	// Obs, when it carries a Registry, publishes feed progress
	// (feed.accesses, feed.periods_done, feed.periods_total) so a long
	// characterization can be watched live. Nil publishes nothing.
	Obs *obs.Options
}

func (c Fig1Config) withDefaults() Fig1Config {
	if c.Periods <= 0 {
		c.Periods = 1000
	}
	if c.PerPeriod <= 0 {
		c.PerPeriod = 50_000
	}
	if c.MaxWays <= 0 {
		c.MaxWays = profile.DefaultMaxWays
	}
	if c.Seed == 0 {
		c.Seed = 0x57E4
	}
	return c
}

// Fig1Result carries the per-period demand distributions.
type Fig1Result struct {
	Benchmark string
	MaxWays   int
	Periods   []profile.PeriodDist
}

// MeanFraction returns the average share of sets in band b across periods.
func (r Fig1Result) MeanFraction(b int) float64 {
	if len(r.Periods) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range r.Periods {
		sum += p.Fraction(b)
	}
	return sum / float64(len(r.Periods))
}

// Figure1 reproduces the §3.1 characterization for one analog.
func Figure1(cfg Fig1Config) (Fig1Result, error) {
	cfg = cfg.withDefaults()
	b, err := workloads.ByName(cfg.Benchmark)
	if err != nil {
		return Fig1Result{}, err
	}
	gen := trace.NewGen(b.Workload, PaperGeometry, cfg.Seed)
	d := profile.NewDemand(PaperGeometry, cfg.PerPeriod, cfg.MaxWays)
	var reg *obs.Registry // nil-safe: a nil registry hands out no-op metrics
	if cfg.Obs != nil {
		reg = cfg.Obs.Registry
	}
	fed, done := reg.Counter("feed.accesses"), reg.Gauge("feed.periods_done")
	reg.Gauge("feed.periods_total").Set(float64(cfg.Periods))
	for p := 0; p < cfg.Periods; p++ {
		for i := 0; i < cfg.PerPeriod; i++ {
			d.Feed(gen.Next().Block)
		}
		fed.Add(uint64(cfg.PerPeriod))
		done.Set(float64(p + 1))
	}
	return Fig1Result{Benchmark: cfg.Benchmark, MaxWays: cfg.MaxWays, Periods: d.Periods()}, nil
}

// Fig1Table renders the mean band shares as a table (band label → share).
func Fig1Table(results ...Fig1Result) *stats.Table {
	cols := make([]string, 0, len(results))
	for _, r := range results {
		cols = append(cols, r.Benchmark)
	}
	t := stats.NewTable("Figure 1: mean share of sets per capacity-demand band", "demand", cols...)
	if len(results) == 0 {
		return t
	}
	bands := results[0].MaxWays/2 + 1
	for b := 0; b < bands; b++ {
		for _, r := range results {
			t.Set(profile.BandLabel(b), r.Benchmark, r.MeanFraction(b))
		}
	}
	return t
}

// ---------------------------------------------------------------------------
// Figure 2 — the deterministic two-set synthetic examples.
// ---------------------------------------------------------------------------

// Fig2Row is one example's measured and analytical miss rates.
type Fig2Row struct {
	Example                int
	LRU, DIP, SBC, STEM    float64 // measured steady-state miss rates
	ExpLRU, ExpDIP, ExpSBC float64 // paper's analytical values
}

// Figure2 replays the paper's Figure 2 workloads on the real scheme
// implementations. The paper's DIP column assumes an oracle that knows the
// working sets (no dueling warm-up), so measured DIP can sit between the
// LRU and oracle values; the qualitative ordering is what must hold. The
// STEM column corresponds to the "extensional example" (≤ 1/6 for #2).
func Figure2(seed uint64) []Fig2Row {
	if seed == 0 {
		seed = 0x57E4
	}
	rows := make([]Fig2Row, 0, 3)
	for ex := 1; ex <= 3; ex++ {
		row := Fig2Row{Example: ex}
		row.ExpLRU, row.ExpDIP, row.ExpSBC = trace.Figure2Expected(ex)
		for _, cell := range []struct {
			scheme string
			rate   *float64
		}{{"LRU", &row.LRU}, {"DIP", &row.DIP}, {"SBC", &row.SBC}, {"STEM", &row.STEM}} {
			s, err := NewScheme(cell.scheme, trace.Figure2Geometry, seed)
			if err != nil {
				panic(err) // invariant: static scheme list; unreachable
			}
			gen := trace.Figure2(ex)
			// Long warmup lets the adaptive schemes converge, then measure
			// whole periods so the steady-state rate is exact.
			n := 400 * gen.Len()
			*cell.rate = Run(s, gen, RunConfig{Geom: trace.Figure2Geometry, Warmup: n, Measure: n}).MissRate
		}
		rows = append(rows, row)
	}
	return rows
}

// ---------------------------------------------------------------------------
// Figures 3 & 10 — MPKI vs associativity sweeps.
// ---------------------------------------------------------------------------

// SweepConfig parameterizes an associativity sweep for one analog.
type SweepConfig struct {
	Benchmark string
	Schemes   []string // default: all six
	Assocs    []int    // default: the paper's 1,2,4,...,32 ticks
	Run       RunConfig
}

// DefaultAssocs are the x-axis ticks of Figures 3 and 10.
var DefaultAssocs = []int{1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32}

// Sweep reproduces one panel of Figure 3 (five baseline schemes) or Figure
// 10 (plus STEM): absolute MPKI per associativity per scheme. The row
// labels are the associativities.
func Sweep(cfg SweepConfig) (*stats.Table, error) {
	b, err := workloads.ByName(cfg.Benchmark)
	if err != nil {
		return nil, err
	}
	schemes := cfg.Schemes
	if len(schemes) == 0 {
		schemes = SchemeNames
	}
	assocs := cfg.Assocs
	if len(assocs) == 0 {
		assocs = DefaultAssocs
	}
	run := cfg.Run.withDefaults()

	// One row per associativity; the stream does not depend on the ways.
	rows := make([]func() trace.Generator, len(assocs))
	for i := range rows {
		rows[i] = analog(b.Workload, run)
	}
	results, err := runMatrix(rows, len(schemes), func(i, j int) (sim.Simulator, error) {
		geom := run.Geom
		geom.Ways = assocs[i]
		return NewScheme(schemes[j], geom, run.Seed^0xC0FFEE)
	}, run)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(fmt.Sprintf("MPKI vs associativity — %s", cfg.Benchmark), "assoc", schemes...)
	for i, a := range assocs {
		for j, sc := range schemes {
			t.Set(strconv.Itoa(a), sc, results[i][j].MPKI)
		}
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Figures 7, 8, 9 and Table 2 — the main 15-benchmark comparison.
// ---------------------------------------------------------------------------

// Comparison is the full evaluation matrix.
type Comparison struct {
	// Raw holds the absolute results: Raw[bench][scheme].
	Raw map[string]map[string]RunResult
	// MPKI, AMAT, CPI are tables normalized to LRU with a Geomean row
	// (Figures 7, 8, 9). Columns are the five non-LRU schemes.
	MPKI, AMAT, CPI *stats.Table
	// Table2 compares measured LRU MPKI against the paper's Table 2.
	Table2 *stats.Table
}

// MainComparison runs all 15 analogs through all six schemes at the paper
// configuration and assembles Figures 7-9 plus Table 2.
func MainComparison(run RunConfig) (*Comparison, error) {
	run = run.withDefaults()
	suite := workloads.Suite()
	raw, err := schemeMatrix(suite, SchemeNames, run)
	if err != nil {
		return nil, err
	}
	rows, cols := namesOf(suite), SchemeNames[1:]
	c := &Comparison{
		Raw:    raw,
		MPKI:   normalizedTable("Figure 7: MPKI normalized to LRU", raw, rows, cols, mpkiOf),
		AMAT:   normalizedTable("Figure 8: AMAT normalized to LRU", raw, rows, cols, func(r RunResult) float64 { return r.AMAT }),
		CPI:    normalizedTable("Figure 9: CPI normalized to LRU", raw, rows, cols, func(r RunResult) float64 { return r.CPI }),
		Table2: stats.NewTable("Table 2: LRU MPKI, paper vs measured", "bench", "paper", "measured"),
	}
	for _, b := range suite {
		c.Table2.Set(b.Name, "paper", b.PaperMPKI)
		c.Table2.Set(b.Name, "measured", raw[b.Name]["LRU"].MPKI)
	}
	return c, nil
}

// ---------------------------------------------------------------------------
// Table 3 — hardware overhead analysis.
// ---------------------------------------------------------------------------

// Table3 computes the storage-overhead report for the paper configuration
// (44-bit addresses, Table 3 field widths).
func Table3() core.OverheadReport {
	return core.Overhead(PaperGeometry, core.Config{}, 44)
}
