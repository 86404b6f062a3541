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
	"repro/internal/drrip"
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

// NewScheme constructs a scheme by name over the given geometry.
func NewScheme(name string, geom sim.Geometry, seed uint64) (sim.Simulator, error) {
	switch name {
	case "LRU":
		return basecache.NewLRU(geom, seed), nil
	case "DIP":
		return dip.New(geom, dip.Config{Seed: seed}), nil
	case "PELIFO":
		return pelifo.New(geom, pelifo.Config{Seed: seed}), nil
	case "VWAY":
		return vway.New(geom, vway.Config{Seed: seed}), nil
	case "SBC":
		return sbc.New(geom, sbc.Config{Seed: seed}), nil
	case "STEM":
		return core.New(geom, core.Config{Seed: seed}), nil
	case "SRRIP":
		return basecache.New("SRRIP", geom, seed, func(_ int, ways int, rng *sim.RNG) policy.Policy {
			return policy.NewRRIP(policy.SRRIP, ways, rng)
		}), nil
	case "DRRIP":
		return drrip.New(geom, drrip.Config{Seed: seed}), nil
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
	// Timing parameterizes AMAT/CPI. Zero value → mem.DefaultTiming().
	Timing mem.Timing
	// Seed drives the scheme and the workload generator.
	Seed uint64
	// Obs enables run observability: live metrics, mechanism-event tracing
	// and periodic snapshots. Nil (the default) keeps the measured loop on
	// the uninstrumented hot path. Runs sharing one Options (`stemsim
	// paper`'s parallel matrices) share its registry; counters aggregate
	// across runs while snapshot gauges reflect whichever run published last.
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
	if c.Timing == (mem.Timing{}) {
		c.Timing = mem.DefaultTiming()
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
	acct := mem.NewAccount(cfg.Timing)
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
// runs them. Scheme and generator seeds are decoupled so schemes see
// identical reference streams.
func RunWorkload(w trace.Workload, scheme string, cfg RunConfig) (RunResult, error) {
	cfg = cfg.withDefaults()
	s, err := NewScheme(scheme, cfg.Geom, cfg.Seed^0xC0FFEE)
	if err != nil {
		return RunResult{}, err
	}
	gen := trace.NewGen(w, cfg.Geom, cfg.Seed)
	return Run(s, gen, cfg), nil
}

// job/parallel helpers: the comparison matrices are embarrassingly
// parallel, one simulator instance per goroutine.

type job struct {
	key string
	run func() (RunResult, error)
}

// runAll executes jobs on up to GOMAXPROCS goroutines at a time and
// collects results by key; it reports the first error in job order.
func runAll(jobs []job) (map[string]RunResult, error) {
	results := make([]RunResult, len(jobs))
	errs := make([]error, len(jobs))
	slots := make(chan struct{}, max(1, runtime.GOMAXPROCS(0))) // counting semaphore
	var wg sync.WaitGroup
	for i, j := range jobs {
		slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = j.run()
			<-slots
		}()
	}
	wg.Wait()
	byKey := make(map[string]RunResult, len(jobs))
	var first error
	for i, j := range jobs {
		byKey[j.key] = results[i]
		if first == nil {
			first = errs[i]
		}
	}
	return byKey, first
}

// runMatrix runs cell(i, j) for every row i and column j in parallel and
// returns the results as [rows[i]][cols[j]]. Every comparison in this
// package is such a matrix: benchmarks (or associativities) down, schemes
// (or STEM variants) across.
func runMatrix(rows, cols []string, cell func(i, j int) (RunResult, error)) (map[string]map[string]RunResult, error) {
	jobs := make([]job, 0, len(rows)*len(cols))
	for i, r := range rows {
		for j, c := range cols {
			jobs = append(jobs, job{key: r + "/" + c, run: func() (RunResult, error) { return cell(i, j) }})
		}
	}
	flat, err := runAll(jobs)
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[string]RunResult, len(rows))
	for _, r := range rows {
		out[r] = make(map[string]RunResult, len(cols))
		for _, c := range cols {
			out[r][c] = flat[r+"/"+c]
		}
	}
	return out, nil
}

// schemeMatrix runs every benchmark through every named scheme under run.
func schemeMatrix(benches []workloads.Benchmark, schemes []string, run RunConfig) (map[string]map[string]RunResult, error) {
	return runMatrix(namesOf(benches), schemes, func(i, j int) (RunResult, error) {
		return RunWorkload(benches[i].Workload, schemes[j], run)
	})
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
