package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/stemcache"
	"repro/internal/workloads"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMain shortens the host-speed walk as -smoke does: the tests run smoke
// sizes throughout.
func TestMain(m *testing.M) {
	walkSteps = calSteps / 100
	os.Exit(m.Run())
}

// onPath lists, per workload, the layers whose per-layer metrics a traced
// run must report; every other layer reads 0 there.
var onPath = map[string][]string{
	"serve-get":   {"wire.", "stemcache.", "server.", "client.rtt", "client.net", "client.allocs", "obs.", "workloads.", "bench.clock", "bench.trace"},
	"serve-batch": {"wire.", "stemcache.", "server.", "client.", "workloads.", "bench.clock", "bench.trace"},
	"serve-open":  {"wire.", "server.", "client.rtt", "client.net", "open.", "bench.", "workloads."},
	"lib-mixed":   {"stemcache.", "workloads.", "bench.clock", "bench.trace"},
	"lib-churn":   {"stemcache.", "workloads.", "bench.clock", "bench.trace"},
	"sim-suite":   {"core.", "basecache.", "trace.", "bench.clock", "bench.trace"},
	"cluster-rf2": {"wire.", "server.", "client.net", "cluster.", "membership.", "workloads.", "bench.clock", "bench.trace"},
}

// mayBeZero are on-path metrics that legitimately read 0 at smoke sizes: counts
// of things that did not happen, and costs below the clock's resolution.
var mayBeZero = regexp.MustCompile(`allocs|errors|retries|missing|_per_kop|_per_kaccess|_sets|hit_share|hit_ratio|probe_ratio|gain_pp|cost_pct|overhead_pct|_p99_us|_p50_us|_self_us|max_rate_ok|gen_late`)

// TestSmokeSuite runs every workload untraced and traced at -smoke sizes and
// checks the shape of what it reports.
func TestSmokeSuite(t *testing.T) {
	for _, w := range suite {
		for _, traced := range []bool{false, true} {
			res, err := w.run(runConfig{seed: 0x57E4, seconds: smokeSeconds, traced: traced, outDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d, failed %d: %v", w.name, traced, res.Attempted, res.Failed, res.Notes)
			}
			var line struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(res.line()), &line); err != nil {
				t.Fatalf("%s: result line: %v", w.name, err)
			}
			defs := declared(traced)
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: result line has %d metrics, %d declared", w.name, traced, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				got, ok := line.Metrics[d.Name]
				if !ok || got.Value == nil || got.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or without its unit %q: %+v", w.name, traced, d.Name, d.Unit, got)
					continue
				}
				v, measured := res.M[d.Name]
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: %s = %v is not finite", w.name, d.Name, v)
				}
				if !traced {
					if !measured || v <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want measured and positive", w.name, d.Name, v)
					}
					continue
				}
				applicable := false
				for _, prefix := range onPath[w.name] {
					applicable = applicable || strings.HasPrefix(d.Name, prefix)
				}
				if applicable && !measured {
					t.Errorf("%s: per-layer metric %s is on the workload's path but was not measured", w.name, d.Name)
				}
				if applicable && v == 0 && !mayBeZero.MatchString(d.Name) {
					t.Errorf("%s: per-layer metric %s = 0", w.name, d.Name)
				}
			}
			if traced {
				if res.budget == nil || len(res.budget.rows) < 2 {
					t.Fatalf("%s: traced run produced no budget", w.name)
				}
				var sum float64
				for _, r := range res.budget.rows {
					sum += r.selfNsPerOp
				}
				if math.Abs(sum-res.budget.perOp) > 0.05*res.budget.perOp {
					t.Errorf("%s: budget rows sum to %.1f ns, mean op is %.1f ns", w.name, sum, res.budget.perOp)
				}
			}
		}
	}
}

// TestBenchmarkJSON holds ../BENCHMARK.json and the tables in main.go
// together, and checks the file against the limits of its contract.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var gated []string
	for _, w := range suite {
		if w.gated {
			gated = append(gated, w.name)
		}
	}
	if len(doc.Workloads) != len(gated) {
		t.Fatalf("%d workloads declared, the suite gates %d", len(doc.Workloads), len(gated))
	}
	for i, w := range doc.Workloads {
		if w.Name != gated[i] {
			t.Errorf("workload %d is %q, the suite's gated workload %d is %q", i, w.Name, i, gated[i])
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics declared, code has %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, code has %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the limits of 128 and 16", len(perLayer), len(endToEnd))
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %+v: bad or repeated name, or bad unit", d)
		}
		seen[d.Name] = true
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		hasSetup = hasSetup || d == metricDef{"setup_s", "s", "lower", d.Bound}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
}

// TestSameSeedSameCounts: simulated statistics and single-goroutine cache
// hit counts are functions of the seed alone.
func TestSameSeedSameCounts(t *testing.T) {
	simulated := func() metrics {
		res, err := runSimSuite(runConfig{seed: 21, seconds: smokeSeconds})
		if err != nil {
			t.Fatal(err)
		}
		out := metrics{}
		for name, v := range res.M {
			if strings.Contains(name, "mpki") || strings.Contains(name, "_per_kaccess") || name == "hit_rate" || name == "miss_norm" {
				out[name] = v
			}
		}
		return out
	}
	a, b := simulated(), simulated()
	if len(a) < 10 {
		t.Fatalf("only %d simulated statistics compared", len(a))
	}
	for name, v := range a {
		if b[name] != v {
			t.Errorf("sim-suite %s: %v then %v for the same seed", name, v, b[name])
		}
	}

	tab, seqs, err := genStreams("mixed", libCapacity, 21, 1, 64*libChunk, valueSize)
	if err != nil {
		t.Fatal(err)
	}
	hits := func() int64 {
		c, err := stemcache.New[string, []byte](libCacheConfig(21))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		return mixedChunks(c, tab, seqs[0], 0, 64, newHist(), nil).hits
	}
	if h1, h2 := hits(), hits(); h1 != h2 || h1 == 0 {
		t.Errorf("lib-mixed on one goroutine: %d hits, then %d", h1, h2)
	}
}

// TestGoldens: the default seed's smoke-size sim-suite reproduces the
// stored counts, and a run that does not would be reported as failed.
func TestGoldens(t *testing.T) {
	goldens, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	if len(goldens) != 2*len(simBenches)*len(simSchemes) {
		t.Fatalf("goldens.json holds %d runs, want default and smoke sizes of %d runs each", len(goldens), len(simBenches)*len(simSchemes))
	}
	res, err := runSimSuite(runConfig{seed: 0x57E4, seconds: smokeSeconds})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Errorf("sim-suite differs from goldens.json: %v", res.Notes)
	}
}

// TestReplayMatchesRunWorkload: moving the generator out of the timed loop
// does not change a single simulated count.
func TestReplayMatchesRunWorkload(t *testing.T) {
	b, err := workloads.ByName("omnetpp")
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.RunConfig{Warmup: 4 * simChunk, Measure: nSlices * 8 * simChunk, Seed: 21}
	for _, scheme := range simSchemes {
		want, err := experiments.RunWorkload(b.Workload, scheme, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rp := replay{warm: cfg.Warmup, slice: cfg.Measure / nSlices}
		rp.generate(b, cfg.Seed, cfg.Warmup+cfg.Measure)
		got, err := rp.simulate(scheme, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats != want.Stats || got.MPKI != want.MPKI {
			t.Errorf("%s: replay %+v, RunWorkload %+v", scheme, got, want)
		}
		var chunks uint64
		for _, h := range rp.chunks {
			chunks += h.n
		}
		if chunks != uint64(cfg.Measure/simChunk) || rp.measuredWall() <= 0 {
			t.Errorf("%s: %d chunks timed, want %d", scheme, chunks, cfg.Measure/simChunk)
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	h := newHist()
	for v := int64(1); v <= 100_000; v++ {
		h.record(v * 10)
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		want := q * 1_000_000
		if got := h.quantile(q); math.Abs(got-want) > 0.02*want {
			t.Errorf("quantile(%v) = %v, want %v within 2%%", q, got, want)
		}
	}
	if got := h.beyond(0.99); got != 1000 {
		t.Errorf("beyond(0.99) = %d, want 1000", got)
	}
	if got := h.countBelow(500_000); math.Abs(float64(got)-50_000) > 1000 {
		t.Errorf("countBelow(500us) = %d, want about 50000", got)
	}
	for _, v := range []uint64{0, 1, 63, 64, 65, 127, 128, 1 << 20, 1<<40 + 12345} {
		lo, width := histBounds(histIndex(v))
		if v < lo || v >= lo+width {
			t.Errorf("value %d indexed into bucket [%d, %d)", v, lo, lo+width)
		}
	}
}

// TestQuartiles pins quartiles to statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{9, 1, 4, 7, 3, 8, 2, 10, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
}

// TestPacerLateness: against a target that does nothing, the generator
// starts 5 k arrivals a second within 100 us of their due times at p99.
func TestPacerLateness(t *testing.T) {
	nW := workers()
	scheds := make([][]int64, nW)
	for w := range scheds {
		scheds[w] = poissonSchedule(1500, 5000/float64(nW), uint64(7+w))
	}
	calls := make([]int, nW)
	outs := openLoop(now()+1e6, scheds, func(w, i int) { calls[w]++ })
	late := newHist()
	for w, o := range outs {
		late.merge(o.late)
		if calls[w] != len(scheds[w]) {
			t.Errorf("worker %d made %d calls of %d", w, calls[w], len(scheds[w]))
		}
	}
	if p99 := late.quantile(0.99); p99 >= float64(maxGenLate) || late.n == 0 {
		t.Errorf("gen_late p99 = %.1f us over %d arrivals, want < 100", p99/1e3, late.n)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "p50_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{80, 120, 95, 130, 70}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, base, base, "ok"},
		{"slower within bound", lower, base, shift(1.05), "ok"},
		{"slower beyond bound", lower, base, shift(1.2), "regressed"},
		{"faster", lower, base, shift(0.5), "ok"},
		{"throughput down", higher, base, shift(0.8), "regressed"},
		{"throughput up", higher, base, shift(1.3), "ok"},
		{"spread wider than bound", lower, base, noisy, "unresolved"},
		{"noisy but every run better", lower, shift(2), noisy, "ok"},
	} {
		if got, _, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
