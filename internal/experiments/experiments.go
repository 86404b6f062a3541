// Package experiments contains one runner per table and figure of the
// paper's evaluation (§3 and §5). Each runner builds the workload, drives
// the schemes under test, and returns the same rows/series the paper
// reports. cmd/stemsim's experiment table and the repository's benchmark
// suite are thin wrappers around this package.
package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/basecache"
	"repro/internal/core"
	"repro/internal/dip"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/pelifo"
	"repro/internal/policy"
	"repro/internal/sbc"
	"repro/internal/sim"
	"repro/internal/skew"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vway"
	"repro/internal/workloads"
)

// SchemeNames lists the six schemes of the evaluation in presentation
// order. LRU is the normalization baseline.
var SchemeNames = []string{"LRU", "DIP", "PELIFO", "VWAY", "SBC", "STEM"}

// ExtensionSchemeNames lists additional schemes available from NewScheme
// that are not part of the paper's evaluation: the RRIP family (ISCA 2010),
// which postdates the paper and serves as the extension baseline, and the
// skewed-associative cache (ISCA 1993) the related work cites as the
// earliest spatial approach.
var ExtensionSchemeNames = []string{"SRRIP", "DRRIP", "SKEW"}

// NewScheme constructs a scheme by name over the given geometry. It refuses
// a geometry that fails Validate, fewer than two sets for the schemes that
// duel leader sets (DIP, PELIFO, DRRIP), and a V-Way cache wider than
// vway.MaxWays.
func NewScheme(name string, geom sim.Geometry, seed uint64) (sim.Simulator, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	switch {
	case (name == "DIP" || name == "PELIFO" || name == "DRRIP") && geom.Sets < 2:
		return nil, fmt.Errorf("experiments: %s needs at least 2 sets, one leader set per dueling flavour; got %d", name, geom.Sets)
	case name == "VWAY" && geom.Ways > vway.MaxWays:
		return nil, fmt.Errorf("experiments: VWAY needs at most %d ways, its tag store being twice as wide; got %d", vway.MaxWays, geom.Ways)
	}
	switch name {
	case "LRU":
		return basecache.NewLRU(geom, seed), nil
	case "DIP":
		return dip.New(geom, seed), nil
	case "PELIFO":
		return pelifo.New(geom, seed), nil
	case "VWAY":
		return vway.New(geom, seed), nil
	case "SBC":
		return sbc.New(geom, seed), nil
	case "STEM":
		return core.New(geom, core.Config{Seed: seed}), nil
	case "SRRIP":
		return basecache.NewStatic("SRRIP", geom, seed, policy.SRRIP), nil
	case "DRRIP":
		return dip.NewDRRIP(geom, seed), nil
	case "SKEW":
		return skew.New(geom, seed), nil
	default:
		return nil, fmt.Errorf("experiments: unknown scheme %q (have %v and extensions %v)",
			name, SchemeNames, ExtensionSchemeNames)
	}
}

// PaperGeometry is the evaluation's standard LLC: 2MB, 16-way, 64B lines
// (Table 1).
var PaperGeometry = sim.Geometry{Sets: 2048, Ways: 16, LineSize: 64}

// RunConfig controls one simulation run.
type RunConfig struct {
	// Geom is the LLC organization. Zero value → PaperGeometry.
	Geom sim.Geometry
	// Warmup is the number of accesses before measurement starts.
	Warmup int
	// Measure is the number of measured accesses.
	Measure int
	// Seed drives the scheme and the workload generator.
	Seed uint64
	// Obs enables run observability: live metrics, mechanism-event tracing
	// and periodic snapshots. Nil (the default) keeps the measured loop on
	// the uninstrumented hot path. In a matrix an observed cell walks its
	// own pass over the stream through Run, which carries the
	// instrumentation, and the columns of a row run one after another: the
	// event log and the registry cover the measured portion of each scheme
	// in sequence. Rows still run in parallel on the one Options (`stemsim
	// paper`): counters aggregate across them, their events interleave, and
	// snapshot gauges reflect whichever cell published last.
	Obs *obs.Options
}

func (c RunConfig) withDefaults() RunConfig {
	if c.Geom == (sim.Geometry{}) {
		c.Geom = PaperGeometry
	}
	if c.Warmup <= 0 {
		c.Warmup = 1_000_000
	}
	if c.Measure <= 0 {
		c.Measure = 3_000_000
	}
	if c.Seed == 0 {
		c.Seed = 0x57E4 // fixed default so every report is reproducible
	}
	return c
}

// RunResult summarizes one (workload, scheme) simulation.
type RunResult struct {
	Scheme   string
	Stats    sim.Stats
	MissRate float64
	MPKI     float64
	AMAT     float64
	CPI      float64
}

// Run drives sim over gen: Warmup accesses unmeasured, then Measure
// accesses through a timing account. With cfg.Obs enabled, the measured
// phase additionally feeds the metrics registry, attaches the event tracer
// to instrumented schemes (warm-up stays untraced so the event log
// reconciles exactly with the run's final Stats), and publishes periodic
// plus final snapshots.
func Run(s sim.Simulator, gen trace.Generator, cfg RunConfig) RunResult {
	cfg = cfg.withDefaults()
	for i := 0; i < cfg.Warmup; i++ {
		r := gen.Next()
		s.Access(sim.Access{Block: r.Block, Write: r.Write})
	}
	s.ResetStats()
	acct := mem.NewAccount()
	if cfg.Obs.Enabled() {
		runObserved(s, gen, cfg, acct)
	} else {
		for i := 0; i < cfg.Measure; i++ {
			r := gen.Next()
			out := s.Access(sim.Access{Block: r.Block, Write: r.Write})
			acct.Record(r.Instrs, out)
		}
	}
	st := s.Stats()
	return RunResult{
		Scheme:   s.Name(),
		Stats:    st,
		MissRate: st.MissRate(),
		MPKI:     acct.MPKI(),
		AMAT:     acct.AMAT(),
		CPI:      acct.CPI(),
	}
}

// summarize is Run's result for a row-driven simulator (Run keeps its text).
func summarize(s sim.Simulator, acct *mem.Account) RunResult {
	st := s.Stats()
	return RunResult{
		Scheme:   s.Name(),
		Stats:    st,
		MissRate: st.MissRate(),
		MPKI:     acct.MPKI(),
		AMAT:     acct.AMAT(),
		CPI:      acct.CPI(),
	}
}

// runObserved is the instrumented measured loop: identical simulation
// behaviour to the plain loop, plus registry counters per access and
// snapshot publication. It is kept out of Run so the disabled path stays a
// tight loop.
func runObserved(s sim.Simulator, gen trace.Generator, cfg RunConfig, acct *mem.Account) {
	o := cfg.Obs
	if in, ok := s.(obs.Instrumented); ok && o.Tracer != nil {
		in.SetObserver(o.Tracer)
		defer in.SetObserver(nil)
	}
	reg := o.Registry // nil-safe: a nil registry hands out no-op metrics
	var (
		accesses   = reg.Counter("run.accesses")
		hits       = reg.Counter("run.hits")
		misses     = reg.Counter("run.misses")
		writebacks = reg.Counter("run.writebacks")
		secondary  = reg.Counter("run.secondary_hits")
	)
	every := o.SnapshotEvery
	for i := 0; i < cfg.Measure; i++ {
		r := gen.Next()
		out := s.Access(sim.Access{Block: r.Block, Write: r.Write})
		acct.Record(r.Instrs, out)
		accesses.Inc()
		if out.Hit {
			hits.Inc()
		} else {
			misses.Inc()
		}
		if out.SecondaryHit {
			secondary.Inc()
		}
		if out.Writeback {
			writebacks.Inc()
		}
		if every > 0 && (i+1)%every == 0 && i+1 < cfg.Measure {
			o.Publish(obs.MakeSnapshot(s, uint64(i+1), acct.MPKI(), false))
		}
	}
	o.Publish(obs.MakeSnapshot(s, uint64(cfg.Measure), acct.MPKI(), true))
}

// RunWorkload builds the named scheme and the workload generator, then
// runs them: the 1 × 1 matrix. Scheme and generator seeds are decoupled so
// schemes see identical reference streams.
func RunWorkload(w trace.Workload, scheme string, cfg RunConfig) (RunResult, error) {
	cfg = cfg.withDefaults()
	res, err := RunStream(analog(w, cfg), []string{scheme}, cfg)
	return res[0], err
}

// RunStream runs one reference stream — open starts a fresh pass over it —
// through each named scheme, built as RunWorkload builds it, and returns the
// results in the schemes' order: a one-row matrix.
func RunStream(open func() trace.Generator, schemes []string, cfg RunConfig) ([]RunResult, error) {
	cfg = cfg.withDefaults()
	res, err := runMatrix([]func() trace.Generator{open}, len(schemes), schemeColumns(schemes, cfg), cfg)
	return res[0], err
}

// newGen builds an analog's generator; the draw-count test swaps it.
var newGen = func(w trace.Workload, geom sim.Geometry, seed uint64) trace.Generator {
	return trace.NewGen(w, geom, seed)
}

// analog is a workload's matrix row: a pass over its stream at run's sets and seed.
func analog(w trace.Workload, run RunConfig) func() trace.Generator {
	return func() trace.Generator { return newGen(w, run.Geom, run.Seed) }
}

// schemeColumns builds column j as schemes[j], seeded apart from the stream.
func schemeColumns(schemes []string, run RunConfig) func(i, j int) (sim.Simulator, error) {
	return func(_, j int) (sim.Simulator, error) { return NewScheme(schemes[j], run.Geom, run.Seed^0xC0FFEE) }
}

// chunkRefs is how many references a row draws before its columns consume
// them in turn. Six paper-sized simulators (≈ 1.2 MB each) evict one another
// from L2 and a chunk has to pay for each one's reload: `paper -only fig7`
// takes 31.7 s at 512, 21.4 s at 4096, 16.8 s at 65 536, 15.1 s at 262 144.
const chunkRefs = 1 << 16

// runMatrix is the one runner behind every comparison in this package:
// streams (benchmarks, or one benchmark per associativity) down, simulators
// (schemes, or STEM variants) across. Row i's references are drawn once and
// fed, a chunk at a time, to each simulator build(i, j) gives, so every
// column sees the identical stream and result [i][j] equals Run over a pass
// of its own. Rows run in parallel; with fewer rows than cores a row's
// columns split into groups that each draw the stream again, so a short
// matrix still uses every core. An observed row is one group whose cells go
// through Run in column order (see RunConfig.Obs).
func runMatrix(rows []func() trace.Generator, cols int, build func(i, j int) (sim.Simulator, error), cfg RunConfig) ([][]RunResult, error) {
	cfg = cfg.withDefaults()
	procs := max(1, runtime.GOMAXPROCS(0))
	per := max(1, cols) // columns per group
	if !cfg.Obs.Enabled() {
		split := (procs + len(rows) - 1) / max(1, len(rows))
		per = max(1, (cols+split-1)/split)
	}
	results := make([][]RunResult, len(rows))
	errs := make([]error, len(rows)*cols) // a group's, at its first cell
	var wg sync.WaitGroup
	slots := make(chan struct{}, procs) // counting semaphore
	for i, open := range rows {
		results[i] = make([]RunResult, cols)
		for lo := 0; lo < cols; lo += per {
			out, err := results[i][lo:min(lo+per, cols)], &errs[i*cols+lo]
			slots <- struct{}{}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-slots }()
				// Built here: only the running groups' simulators are alive.
				sims := make([]sim.Simulator, len(out))
				for j := range sims {
					if sims[j], *err = build(i, lo+j); *err != nil {
						return
					}
				}
				runGroup(open, sims, cfg, out)
			}()
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err // the failed group's cells are zero
		}
	}
	return results, nil
}

// runGroup runs sims over one pass of the stream — or, a lone or observed
// simulator, over a pass each through Run.
func runGroup(open func() trace.Generator, sims []sim.Simulator, cfg RunConfig, out []RunResult) {
	if len(sims) == 1 || cfg.Obs.Enabled() {
		for j, s := range sims {
			out[j] = Run(s, open(), cfg)
		}
		return
	}
	gen, end := open(), cfg.Warmup+cfg.Measure
	buf := make([]trace.Ref, min(chunkRefs, end))
	accts := make([]*mem.Account, len(sims))
	for pos := 0; pos < end; {
		stop := end // a chunk never straddles the end of warm-up
		if pos < cfg.Warmup {
			stop = cfg.Warmup
		}
		refs := buf[:min(len(buf), stop-pos)]
		for k := range refs {
			refs[k] = gen.Next()
		}
		for j, s := range sims {
			acct := accts[j] // nil during warm-up
			for _, r := range refs {
				out := s.Access(sim.Access{Block: r.Block, Write: r.Write})
				if acct != nil {
					acct.Record(r.Instrs, out)
				}
			}
		}
		if pos += len(refs); pos == cfg.Warmup {
			for j, s := range sims {
				s.ResetStats()
				accts[j] = mem.NewAccount()
			}
		}
	}
	for j, s := range sims {
		out[j] = summarize(s, accts[j])
	}
}

// benchMatrix runs every benchmark's stream through the named columns and
// keys the results [benchmark][column].
func benchMatrix(benches []workloads.Benchmark, cols []string, build func(i, j int) (sim.Simulator, error), run RunConfig) (map[string]map[string]RunResult, error) {
	rows := make([]func() trace.Generator, len(benches))
	for i, b := range benches {
		rows[i] = analog(b.Workload, run)
	}
	res, err := runMatrix(rows, len(cols), build, run)
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[string]RunResult, len(benches))
	for i, b := range benches {
		out[b.Name] = make(map[string]RunResult, len(cols))
		for j, c := range cols {
			out[b.Name][c] = res[i][j]
		}
	}
	return out, nil
}

// schemeMatrix runs every benchmark through every named scheme under run.
func schemeMatrix(benches []workloads.Benchmark, schemes []string, run RunConfig) (map[string]map[string]RunResult, error) {
	run = run.withDefaults()
	return benchMatrix(benches, schemes, schemeColumns(schemes, run), run)
}

func namesOf(benches []workloads.Benchmark) []string {
	names := make([]string, len(benches))
	for i, b := range benches {
		names[i] = b.Name
	}
	return names
}

// normalizedTable renders one metric of a matrix the way Figures 7-9 do:
// each of cols divided by the row's LRU cell, plus a geomean row.
func normalizedTable(title string, raw map[string]map[string]RunResult, rows, cols []string, metric func(RunResult) float64) *stats.Table {
	t := stats.NewTable(title, "bench", cols...)
	for _, r := range rows {
		base := metric(raw[r]["LRU"])
		for _, c := range cols {
			t.Set(r, c, stats.Normalize(metric(raw[r][c]), base))
		}
	}
	t.AddGeomeanRow()
	return t
}

func mpkiOf(r RunResult) float64 { return r.MPKI }
