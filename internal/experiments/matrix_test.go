package experiments

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// countedSim counts the accesses a simulator has been handed.
type countedSim struct {
	sim.Simulator
	n int
}

func (c *countedSim) Access(a sim.Access) sim.Outcome {
	c.n++
	return c.Simulator.Access(a)
}

// lookaheadGen records, at each Next, how many accesses the simulator has
// seen: reference i must be pulled when exactly i accesses are done.
type lookaheadGen struct {
	trace.Generator
	s    *countedSim
	seen []int
}

func (g *lookaheadGen) Next() trace.Ref {
	g.seen = append(g.seen, g.s.n)
	return g.Generator.Next()
}

// TestRunPullsOneReferencePerAccess pins what bench/'s replay generator
// rests on: Run pulls each reference immediately before the access that
// consumes it, so a generator that reads the clock inside Next times the
// simulation and nothing else. A Run that pre-pulled a chunk would fail here.
func TestRunPullsOneReferencePerAccess(t *testing.T) {
	cfg := RunConfig{Geom: sim.Geometry{Sets: 64, Ways: 4, LineSize: 64}, Warmup: 1_000, Measure: 3_000}
	w := workloads.Suite()[0].Workload
	for name, o := range map[string]*obs.Options{"plain": nil, "observed": {Registry: obs.NewRegistry()}} {
		cfg.Obs = o
		lru, err := NewScheme("LRU", cfg.Geom, 1)
		if err != nil {
			t.Fatal(err)
		}
		s := &countedSim{Simulator: lru}
		g := &lookaheadGen{Generator: trace.NewGen(w, cfg.Geom, 1), s: s}
		Run(s, g, cfg)
		if len(g.seen) != cfg.Warmup+cfg.Measure {
			t.Fatalf("%s: %d references pulled, want %d", name, len(g.seen), cfg.Warmup+cfg.Measure)
		}
		for i, n := range g.seen {
			if n != i {
				t.Fatalf("%s: reference %d pulled after %d accesses (look-ahead)", name, i, n)
			}
		}
	}
}

// tinyCfg sizes the matrix tests: 128 sets, a few thousand references.
func tinyCfg() RunConfig {
	return RunConfig{Geom: sim.Geometry{Sets: 128, Ways: 8, LineSize: 64}, Warmup: 700, Measure: 900, Seed: 0x57E4}
}

// drawCounter swaps the package's generator seam for one that counts the
// passes opened over analog streams and the references drawn from them.
type drawCounter struct{ passes, refs atomic.Int64 }

type countedGen struct {
	trace.Generator
	c *drawCounter
}

func (g countedGen) Next() trace.Ref {
	g.c.refs.Add(1)
	return g.Generator.Next()
}

// countDraws installs the counter and sets GOMAXPROCS (0: as it is) until
// the test ends.
func countDraws(t testing.TB, procs int) *drawCounter {
	t.Helper()
	c := &drawCounter{}
	orig, prev := newGen, runtime.GOMAXPROCS(procs)
	newGen = func(w trace.Workload, geom sim.Geometry, seed uint64) trace.Generator {
		c.passes.Add(1)
		return countedGen{orig(w, geom, seed), c}
	}
	t.Cleanup(func() { newGen = orig; runtime.GOMAXPROCS(prev) })
	return c
}

// expect asserts the draws since the last call: passes over the streams, each
// of them one run long.
func (c *drawCounter) expect(t *testing.T, what string, cfg RunConfig, passes int) {
	t.Helper()
	gotP, gotR := c.passes.Swap(0), c.refs.Swap(0)
	if want := int64(passes) * int64(cfg.Warmup+cfg.Measure); gotP != int64(passes) || gotR != want {
		t.Errorf("%s: %d passes drawing %d references, want %d drawing %d", what, gotP, gotR, passes, want)
	}
}

// TestMatrixDrawsEachRowOnce is the count gate of the row-major matrix: with
// at least as many rows as cores, a matrix draws rows × (Warmup + Measure)
// references however many columns it has — the per-cell runner it replaced
// drew that × columns — and a shorter matrix draws a row at most
// ⌈cores / rows⌉ times, once per column group.
func TestMatrixDrawsEachRowOnce(t *testing.T) {
	cfg := tinyCfg()
	schemes := []string{"LRU", "DIP", "SBC", "STEM"}
	benches := workloads.Suite()[:3]

	c := countDraws(t, 2)
	if _, err := schemeMatrix(benches, schemes, cfg); err != nil {
		t.Fatal(err)
	}
	c.expect(t, "3 x 4 matrix on 2 cores", cfg, 3)

	if _, err := Sweep(SweepConfig{Benchmark: "ammp", Schemes: []string{"LRU", "STEM"}, Assocs: []int{2, 4, 8}, Run: cfg}); err != nil {
		t.Fatal(err)
	}
	c.expect(t, "Sweep, 3 associativities x 2 schemes", cfg, 3)

	if _, err := Ablate(ComponentVariants(), []string{"ammp", "omnetpp"}, cfg); err != nil {
		t.Fatal(err)
	}
	c.expect(t, "Ablate, 2 analogs x (LRU + 4 variants)", cfg, 2)

	if _, err := ExtensionComparison(cfg); err != nil {
		t.Fatal(err)
	}
	c.expect(t, "ExtensionComparison, 15 analogs x 6 schemes", cfg, 15)

	// Fewer rows than cores: the columns split so that every core has work.
	if _, err := RunWorkload(benches[0].Workload, "STEM", cfg); err != nil {
		t.Fatal(err)
	}
	c.expect(t, "RunWorkload", cfg, 1)
	if _, err := schemeMatrix(benches[:1], schemes, cfg); err != nil {
		t.Fatal(err)
	}
	c.expect(t, "1 x 4 matrix on 2 cores", cfg, 2)

	runtime.GOMAXPROCS(8)
	if _, err := schemeMatrix(benches, schemes, cfg); err != nil {
		t.Fatal(err)
	}
	c.expect(t, "3 x 4 matrix on 8 cores", cfg, 3*2) // ⌈8/3⌉ = 3 groups wanted, 4 columns make 2 of 2

	// An observed cell walks a pass of its own through Run.
	cfg.Obs = &obs.Options{Registry: obs.NewRegistry()}
	if _, err := schemeMatrix(benches, schemes, cfg); err != nil {
		t.Fatal(err)
	}
	c.expect(t, "observed 3 x 4 matrix", cfg, 12)
}

// TestMatrixCellsEqualRunWorkload: sharing a row's stream changes nothing a
// cell reports. Every cell's full RunResult equals RunWorkload on the same
// (workload, scheme, config) — with a warm-up that is not a multiple of the
// chunk and ends inside one, a measured phase shorter than a chunk, and with
// the columns split into groups.
func TestMatrixCellsEqualRunWorkload(t *testing.T) {
	schemes := []string{"LRU", "DIP", "PELIFO", "VWAY", "SBC", "STEM"}
	benches := []workloads.Benchmark{workloads.Suite()[0], workloads.Suite()[3], workloads.Suite()[8]}
	for _, tc := range []struct {
		name            string
		procs           int
		warmup, measure int
	}{
		{"warm-up past one chunk, measure under one", 2, chunkRefs + 4_465, 30_000},
		{"warm-up under one chunk, measure past one", 2, 1_001, chunkRefs + 777},
		{"column groups", 8, 5_000, 20_000},
	} {
		prev := runtime.GOMAXPROCS(tc.procs)
		cfg := tinyCfg()
		cfg.Warmup, cfg.Measure = tc.warmup, tc.measure
		got, err := schemeMatrix(benches, schemes, cfg)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range benches {
			for _, sc := range schemes {
				want, err := RunWorkload(b.Workload, sc, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if g := got[b.Name][sc]; g != want {
					t.Errorf("%s: %s/%s: matrix cell\n%+v\nRunWorkload\n%+v", tc.name, b.Name, sc, g, want)
				}
			}
		}
	}
}

// TestTracedStreamRunsSchemesInSequence holds `stemsim run -trace` to its
// promise: with a tracer attached the schemes of one stream run one after
// another, so the event log is each scheme's measured portion in turn — the
// events up to the first final snapshot reconcile with the first scheme's
// stats, the rest with the second's.
func TestTracedStreamRunsSchemesInSequence(t *testing.T) {
	cfg := obsRunConfig
	var buf bytes.Buffer
	tr := obs.NewJSONLTracer(&buf)
	cfg.Obs = &obs.Options{Tracer: tr}
	w := workloads.Suite()[3].Workload // omnetpp
	res, err := RunStream(analog(w, cfg.withDefaults()), []string{"SBC", "STEM"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cut := 0
	for i, e := range events {
		if e.Type == obs.EvSnapshot && e.Snap.Final {
			cut = i + 1
			break
		}
	}
	for i, part := range [][]obs.Event{events[:cut], events[cut:]} {
		sum, st := summarizeTrace(part), res[i].Stats
		if sum.Last == nil || !sum.Last.Final || sum.Last.Stats != st {
			t.Fatalf("%s: its part of the log does not end in its final snapshot", res[i].Scheme)
		}
		if st.Spills == 0 || sum.Counts[obs.EvSpill] != st.Spills || sum.Counts[obs.EvCouple] != st.Couplings {
			t.Errorf("%s: log has %d spills / %d couplings, stats %d / %d", res[i].Scheme,
				sum.Counts[obs.EvSpill], sum.Counts[obs.EvCouple], st.Spills, st.Couplings)
		}
	}
}

// BenchmarkMatrix runs a 3-analog × 6-scheme matrix at the paper's geometry
// and reports the rate of simulated accesses over all cells and how many
// references were drawn per access: 1/6 when every row is drawn once (rows ≥
// cores), 1 for a runner that regenerates the stream per cell.
func BenchmarkMatrix(b *testing.B) {
	cfg := RunConfig{Warmup: 20_000, Measure: 60_000}.withDefaults()
	benches := []workloads.Benchmark{workloads.Suite()[3], workloads.Suite()[8], workloads.Suite()[13]} // omnetpp, mcf, twolf
	c := countDraws(b, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := schemeMatrix(benches, SchemeNames, cfg); err != nil {
			b.Fatal(err)
		}
	}
	accesses := float64(b.N * len(benches) * len(SchemeNames) * (cfg.Warmup + cfg.Measure))
	b.ReportMetric(accesses/b.Elapsed().Seconds(), "cell-accesses/s")
	b.ReportMetric(float64(c.refs.Load())/accesses, "refs-drawn/cell-access")
}
