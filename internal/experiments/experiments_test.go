package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// quickCfg keeps unit-test runs fast: a 128-set cache is enough to exercise
// every mechanism; the full-size runs happen in the benchmark harness.
func quickCfg() RunConfig {
	return RunConfig{
		Geom:    sim.Geometry{Sets: 128, Ways: 16, LineSize: 64},
		Warmup:  60_000,
		Measure: 200_000,
		Seed:    0x57E4,
	}
}

func TestNewSchemeAllNames(t *testing.T) {
	geom := sim.Geometry{Sets: 16, Ways: 4, LineSize: 64}
	for _, name := range SchemeNames {
		s, err := NewScheme(name, geom, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("scheme %q reports name %q", name, s.Name())
		}
		if s.Geometry() != geom {
			t.Fatalf("%s geometry mismatch", name)
		}
	}
	if _, err := NewScheme("OPT", geom, 1); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

// TestNewSchemeRefusesGeometry: a geometry no scheme can be built over is an
// error from NewScheme, never a panic inside a constructor.
func TestNewSchemeRefusesGeometry(t *testing.T) {
	all := append(append([]string(nil), SchemeNames...), ExtensionSchemeNames...)
	for _, g := range []sim.Geometry{{Sets: 3, Ways: 4, LineSize: 64}, {Sets: 16, Ways: sim.MaxWays + 1, LineSize: 64}, {Sets: 16, Ways: 4, LineSize: 48}} {
		for _, name := range all {
			if _, err := NewScheme(name, g, 1); err == nil {
				t.Errorf("%s over %+v: no error", name, g)
			}
		}
	}
	oneSet := sim.Geometry{Sets: 1, Ways: 4, LineSize: 64}
	wide := sim.Geometry{Sets: 2, Ways: sim.MaxWays/2 + 1, LineSize: 64}
	for _, name := range all {
		_, err := NewScheme(name, oneSet, 1)
		if dueling := name == "DIP" || name == "PELIFO" || name == "DRRIP"; dueling != (err != nil) {
			t.Errorf("%s over one set: err %v", name, err)
		}
		if _, err := NewScheme(name, wide, 1); (name == "VWAY") != (err != nil) {
			t.Errorf("%s over %d ways: err %v", name, wide.Ways, err)
		}
	}
}

func TestRunProducesConsistentMetrics(t *testing.T) {
	cfg := quickCfg()
	res, err := RunWorkload(workloads.Suite()[0].Workload, "LRU", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Accesses != uint64(cfg.Measure) {
		t.Fatalf("measured %d accesses, want %d", res.Stats.Accesses, cfg.Measure)
	}
	if res.MPKI <= 0 || res.AMAT <= 0 || res.CPI <= 0 {
		t.Fatalf("non-positive metrics: %+v", res)
	}
	if res.MissRate <= 0 || res.MissRate >= 1 {
		t.Fatalf("degenerate miss rate %v", res.MissRate)
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := quickCfg()
	w := workloads.Suite()[3].Workload // omnetpp
	a, err := RunWorkload(w, "STEM", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWorkload(w, "STEM", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("identical runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestSchemesSeeIdenticalStreams(t *testing.T) {
	// The generator seed is decoupled from the scheme seed, so every scheme
	// must observe the same number of accesses of the same stream.
	cfg := quickCfg()
	w := workloads.Suite()[0].Workload
	var accesses []uint64
	for _, sc := range SchemeNames {
		res, err := RunWorkload(w, sc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		accesses = append(accesses, res.Stats.Accesses)
	}
	for i := 1; i < len(accesses); i++ {
		if accesses[i] != accesses[0] {
			t.Fatalf("scheme %s saw %d accesses, others %d", SchemeNames[i], accesses[i], accesses[0])
		}
	}
}

func TestFigure1ShapesMatchPaper(t *testing.T) {
	// Scaled-down Figure 1: ammp must show a demand-0 band (streaming) and a
	// dominant <=6-line band; omnetpp's mass must sit higher.
	ammp, err := Figure1(Fig1Config{Benchmark: "ammp", Periods: 5, PerPeriod: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(ammp.Periods) != 5 {
		t.Fatalf("%d periods, want 5", len(ammp.Periods))
	}
	low := ammp.MeanFraction(0) + ammp.MeanFraction(1) + ammp.MeanFraction(2) + ammp.MeanFraction(3)
	if low < 0.40 {
		t.Fatalf("ammp low-demand share %v, want ~half of sets <= 8 lines", low)
	}
	omnet, err := Figure1(Fig1Config{Benchmark: "omnetpp", Periods: 5, PerPeriod: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	highO, highA := 0.0, 0.0
	for b := 8; b <= 16; b++ { // demand 15+
		highO += omnet.MeanFraction(b)
		highA += ammp.MeanFraction(b)
	}
	if highO <= highA {
		t.Fatalf("omnetpp high-demand share %v not above ammp's %v", highO, highA)
	}
	if _, err := Figure1(Fig1Config{Benchmark: "nope"}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestFigure2MatchesAnalyticalShape(t *testing.T) {
	rows := Figure2(0)
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	ex1, ex2, ex3 := rows[0], rows[1], rows[2]

	// Example #1: SBC and STEM retain both working sets entirely; LRU
	// thrashes set 0 (measured rate = paper's 1/2).
	if ex1.LRU < 0.49 || ex1.LRU > 0.51 {
		t.Fatalf("ex1 LRU = %v, want 1/2", ex1.LRU)
	}
	if ex1.SBC > 0.01 {
		t.Fatalf("ex1 SBC = %v, want ~0", ex1.SBC)
	}
	if ex1.STEM > 0.05 {
		t.Fatalf("ex1 STEM = %v, want ~0", ex1.STEM)
	}

	// Example #2: the paper's ordering LRU > SBC > STEM-extensional.
	if ex2.SBC >= ex2.LRU {
		t.Fatalf("ex2: SBC %v not better than LRU %v", ex2.SBC, ex2.LRU)
	}
	if ex2.STEM >= ex2.SBC {
		t.Fatalf("ex2: STEM %v not better than SBC %v (extensional example)", ex2.STEM, ex2.SBC)
	}

	// Example #3: no underutilized sets — SBC degenerates to LRU (miss rate
	// 1); DIP-style insertion is the only help.
	if ex3.LRU < 0.99 {
		t.Fatalf("ex3 LRU = %v, want 1", ex3.LRU)
	}
	if ex3.SBC < 0.99 {
		t.Fatalf("ex3 SBC = %v, want 1 (no spatial headroom)", ex3.SBC)
	}
	if ex3.STEM > 0.8 {
		t.Fatalf("ex3 STEM = %v, want clear improvement via BIP swap", ex3.STEM)
	}
	// Analytical columns are carried through for reporting.
	if ex3.ExpLRU != 1 || ex1.ExpSBC != 0 {
		t.Fatal("analytical expectations not propagated")
	}
}

func TestSweepSmallScale(t *testing.T) {
	tbl, err := Sweep(SweepConfig{
		Benchmark: "ammp",
		Schemes:   []string{"LRU", "STEM"},
		Assocs:    []int{4, 16},
		Run: RunConfig{
			Geom:    sim.Geometry{Sets: 128, Ways: 16, LineSize: 64},
			Warmup:  40_000,
			Measure: 120_000,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows()) != 2 {
		t.Fatalf("rows %v, want 2 associativities", tbl.Rows())
	}
	l4, ok := tbl.Get("4", "LRU")
	if !ok || l4 <= 0 {
		t.Fatalf("missing LRU@4 cell")
	}
	s4, _ := tbl.Get("4", "STEM")
	if s4 > l4 {
		t.Fatalf("STEM@4 (%v) worse than LRU@4 (%v) on ammp", s4, l4)
	}
	if _, err := Sweep(SweepConfig{Benchmark: "nope"}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestTable3MatchesPaperOverhead(t *testing.T) {
	r := Table3()
	if r.OverheadFraction < 0.029 || r.OverheadFraction > 0.033 {
		t.Fatalf("overhead %.4f, want ~0.031", r.OverheadFraction)
	}
	if r.TagBits != 27 {
		t.Fatalf("tag bits %d, want 27", r.TagBits)
	}
}

func TestTable3PublicAPI(t *testing.T) {
	r := Table3()
	if math.Abs(r.OverheadFraction-0.031) > 0.002 {
		t.Fatalf("overhead %.4f, want ~0.031", r.OverheadFraction)
	}
	if r.ExtraBits() <= 0 {
		t.Fatal("no extra bits reported")
	}
	// A wider signature must cost more.
	wide := core.Overhead(PaperGeometry, core.Config{SignatureBits: 16}, 44)
	if wide.OverheadFraction <= r.OverheadFraction {
		t.Fatal("wider signatures did not increase overhead")
	}
}

func TestMainComparisonSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute at full scale; small scale still ~20s")
	}
	cfg := RunConfig{
		Geom:    sim.Geometry{Sets: 256, Ways: 16, LineSize: 64},
		Warmup:  80_000,
		Measure: 250_000,
	}
	c, err := MainComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Structural checks.
	if len(c.Raw) != 15 {
		t.Fatalf("%d benchmarks, want 15", len(c.Raw))
	}
	for _, tbl := range []*struct {
		name string
		t    interface {
			Get(string, string) (float64, bool)
		}
	}{
		{"MPKI", c.MPKI}, {"AMAT", c.AMAT}, {"CPI", c.CPI},
	} {
		if _, ok := tbl.t.Get("Geomean", "STEM"); !ok {
			t.Fatalf("%s table missing geomean", tbl.name)
		}
	}
	// Headline shape: STEM's geomean MPKI beats LRU by a clear margin and
	// is the best or tied-best of all schemes.
	stemG, _ := c.MPKI.Get("Geomean", "STEM")
	if stemG >= 0.95 {
		t.Fatalf("STEM geomean MPKI %v, want clear improvement over LRU", stemG)
	}
	for _, sc := range []string{"DIP", "PELIFO", "VWAY", "SBC"} {
		g, _ := c.MPKI.Get("Geomean", sc)
		if stemG > g*1.02 {
			t.Fatalf("STEM geomean %v worse than %s %v", stemG, sc, g)
		}
	}
	// AMAT and CPI orderings follow MPKI.
	stemA, _ := c.AMAT.Get("Geomean", "STEM")
	stemC, _ := c.CPI.Get("Geomean", "STEM")
	if stemA >= 1 || stemC >= 1 {
		t.Fatalf("STEM AMAT %v / CPI %v geomeans not improvements", stemA, stemC)
	}
	// Table 2 rows carry paper and measured values.
	if v, ok := c.Table2.Get("mcf", "paper"); !ok || v != 59.993 {
		t.Fatalf("Table 2 paper value wrong: %v %v", v, ok)
	}
	if _, ok := c.Table2.Get("mcf", "measured"); !ok {
		t.Fatal("Table 2 measured value missing")
	}
	// Rendering round-trips.
	if !strings.Contains(c.MPKI.String(), "Geomean") {
		t.Fatal("table rendering broken")
	}
}

func TestRunMatrixPropagatesErrors(t *testing.T) {
	cfg := quickCfg()
	cfg.Warmup, cfg.Measure = 100, 100
	_, err := benchMatrix(workloads.Suite()[:3], []string{"a", "b"}, func(i, j int) (sim.Simulator, error) {
		if i == 1 && j == 1 {
			return nil, errTest
		}
		return NewScheme("LRU", cfg.Geom, 1)
	}, cfg)
	if err != errTest {
		t.Fatalf("error not propagated: %v", err)
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "test error" }

func TestExtensionSchemesConstructible(t *testing.T) {
	geom := sim.Geometry{Sets: 16, Ways: 4, LineSize: 64}
	for _, name := range ExtensionSchemeNames {
		s, err := NewScheme(name, geom, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("scheme %q reports %q", name, s.Name())
		}
	}
}

func TestExtensionComparisonSmallScale(t *testing.T) {
	cfg := RunConfig{
		Geom:    sim.Geometry{Sets: 128, Ways: 16, LineSize: 64},
		Warmup:  50_000,
		Measure: 150_000,
	}
	tbl, err := ExtensionComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stem, ok := tbl.Get("Geomean", "STEM")
	if !ok || stem <= 0 || stem >= 1 {
		t.Fatalf("STEM geomean %v,%v", stem, ok)
	}
	drrip, _ := tbl.Get("Geomean", "DRRIP")
	if drrip <= 0 {
		t.Fatalf("DRRIP geomean %v", drrip)
	}
	// The extension claim: STEM's set-level adaptation still beats (or at
	// worst matches) the stronger cache-level temporal family overall.
	if stem > drrip*1.05 {
		t.Fatalf("STEM (%v) clearly worse than DRRIP (%v) overall", stem, drrip)
	}
}

// TestExtensionSharesMainComparisonCells: both comparisons are the same
// benchmark x scheme matrix normalized to LRU, so the schemes they share
// must agree cell for cell, geomean included, at one RunConfig.
func TestExtensionSharesMainComparisonCells(t *testing.T) {
	cfg := RunConfig{Geom: sim.Geometry{Sets: 64, Ways: 8, LineSize: 64}, Warmup: 5_000, Measure: 20_000}
	c, err := MainComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := ExtensionComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range c.MPKI.Rows() {
		for _, sc := range []string{"DIP", "STEM"} {
			want, _ := c.MPKI.Get(row, sc)
			if got, ok := ext.Get(row, sc); !ok || got != want {
				t.Errorf("%s/%s: extension %v, main comparison %v", row, sc, got, want)
			}
		}
	}
}

func TestReplicateConclusionsStableAcrossSeeds(t *testing.T) {
	cfg := RunConfig{
		Geom:    sim.Geometry{Sets: 128, Ways: 16, LineSize: 64},
		Warmup:  40_000,
		Measure: 120_000,
	}
	res, err := Replicate(cfg, []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ReplicationResult{}
	for _, r := range res {
		if len(r.Geomeans) != 3 {
			t.Fatalf("%s: %d geomeans", r.Scheme, len(r.Geomeans))
		}
		byName[r.Scheme] = r
	}
	// The headline conclusion must hold for EVERY seed, not just the paper
	// seed: STEM's worst geomean still beats every other scheme's best.
	stem := byName["STEM"]
	if stem.Summary.Max >= 1 {
		t.Fatalf("STEM worst-seed geomean %v not an improvement", stem.Summary.Max)
	}
	for _, sc := range []string{"DIP", "PELIFO", "VWAY", "SBC"} {
		if stem.Summary.Max > byName[sc].Summary.Min*1.02 {
			t.Fatalf("STEM worst seed (%v) does not dominate %s best seed (%v)",
				stem.Summary.Max, sc, byName[sc].Summary.Min)
		}
	}
	// Rendering includes all schemes.
	tbl := ReplicationTable(res)
	if len(tbl.Rows()) != 5 {
		t.Fatalf("replication table rows %v", tbl.Rows())
	}
	if _, err := Replicate(cfg, nil); err == nil {
		t.Fatal("empty seed list accepted")
	}
}

func TestFigure1DemandVariesOverTime(t *testing.T) {
	// The paper's Figure 1 shows demand distributions *changing across
	// sampling periods* (drifting working sets); a static profile would
	// miss the "dynamic" half of the motivation. Check inter-period
	// variation exists for omnetpp (whose big band drifts).
	r, err := Figure1(Fig1Config{Benchmark: "omnetpp", Periods: 8, PerPeriod: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	varies := false
	for b := 0; b < 17 && !varies; b++ {
		lo, hi := 1.0, 0.0
		for _, p := range r.Periods {
			f := p.Fraction(b)
			if f < lo {
				lo = f
			}
			if f > hi {
				hi = f
			}
		}
		if hi-lo > 0.01 {
			varies = true
		}
	}
	if !varies {
		t.Fatal("no band's share varies across periods — demand is static")
	}
}
