package workloads

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

func TestSuiteShape(t *testing.T) {
	s := Suite()
	if len(s) != 15 {
		t.Fatalf("suite has %d benchmarks, want 15", len(s))
	}
	counts := map[Class]int{}
	for _, b := range s {
		counts[b.Class]++
	}
	if counts[ClassI] != 5 || counts[ClassII] != 5 || counts[ClassIII] != 5 {
		t.Fatalf("class sizes %v, want 5/5/5", counts)
	}
}

func TestAllWorkloadsValidate(t *testing.T) {
	for _, b := range Suite() {
		if err := b.Workload.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
		if b.PaperMPKI <= 0 {
			t.Errorf("%s: missing paper MPKI", b.Name)
		}
		if b.Name != b.Workload.Name {
			t.Errorf("%s: workload name %q mismatched", b.Name, b.Workload.Name)
		}
	}
}

func TestPaperMPKIValues(t *testing.T) {
	// Spot-check Table 2 transcription.
	want := map[string]float64{"ammp": 2.535, "mcf": 59.993, "soplex": 24.298, "vpr": 3.306}
	for name, mpki := range want {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if b.PaperMPKI != mpki {
			t.Errorf("%s paper MPKI = %v, want %v", name, b.PaperMPKI, mpki)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("doom3"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// ofClass returns the analogs of one class, preserving suite order.
func ofClass(c Class) []Benchmark {
	var out []Benchmark
	for _, b := range Suite() {
		if b.Class == c {
			out = append(out, b)
		}
	}
	return out
}

func TestOfClassOrdering(t *testing.T) {
	c1 := ofClass(ClassI)
	want := []string{"ammp", "apsi", "astar", "omnetpp", "xalancbmk"}
	for i, b := range c1 {
		if b.Name != want[i] {
			t.Fatalf("Class I order %v, want %v", c1, want)
		}
	}
}

func TestGeneratorsRunnable(t *testing.T) {
	geom := sim.Geometry{Sets: 256, Ways: 16, LineSize: 64}
	for _, b := range Suite() {
		g := trace.NewGen(b.Workload, geom, 1)
		seen := map[int]bool{}
		for i := 0; i < 20000; i++ {
			r := g.Next()
			seen[geom.Index(r.Block)] = true
		}
		// Every analog must exercise a large share of the sets.
		if len(seen) < geom.Sets/2 {
			t.Errorf("%s touched only %d/%d sets", b.Name, len(seen), geom.Sets)
		}
	}
}

func TestClassIHasNonUniformDemand(t *testing.T) {
	// Class I analogs must contain both a low-demand group (≤ half the
	// paper's 16 ways) and a high-demand group (> 16 ways worth of blocks or
	// a stream), or the spatial dimension would have nothing to do.
	for _, b := range ofClass(ClassI) {
		low, high := false, false
		for _, g := range b.Workload.Groups {
			switch g.Pat.Kind {
			case trace.Stream:
				low = true
			case trace.Zipf, trace.Cyclic:
				if g.Pat.N <= 10 {
					low = true
				}
				if g.Pat.N > 16 || g.Pat.DriftMax > 16 {
					high = true
				}
			case trace.Pairs:
				low = true
			}
		}
		if !low || !high {
			t.Errorf("%s: low=%v high=%v — not a Class I demand mix", b.Name, low, high)
		}
	}
}

func TestClassIIIsUniformlyDemanding(t *testing.T) {
	// Class II analogs must not contain small LRU-friendly groups big enough
	// to act as giver populations... except small-weight auxiliaries. We
	// assert the dominant group (largest Frac) is a thrasher beyond 16 ways.
	for _, b := range ofClass(ClassII) {
		var dom trace.Group
		for _, g := range b.Workload.Groups {
			if g.Frac > dom.Frac {
				dom = g
			}
		}
		if dom.Pat.Kind != trace.Cyclic || dom.Pat.N <= 16 {
			t.Errorf("%s: dominant group %q is not a >16-way cyclic thrasher", b.Name, dom.Name)
		}
	}
}

func TestNamesMatchSuiteOrder(t *testing.T) {
	names := Names()
	suite := Suite()
	for i := range suite {
		if names[i] != suite[i].Name {
			t.Fatalf("Names()[%d] = %s, want %s", i, names[i], suite[i].Name)
		}
	}
}

func TestAstarThrashWindowIsLoadBearing(t *testing.T) {
	// The astar (and ammp) DIP pathology depends on the thrash group
	// occupying assignment window [0.58, 0.60); pin the cumulative
	// fractions so a refactor cannot silently move it.
	for _, name := range []string{"astar", "ammp"} {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cum := 0.0
		found := false
		for _, g := range b.Workload.Groups {
			if g.Name == "thrash" {
				if cum < 0.579 || cum > 0.581 {
					t.Fatalf("%s: thrash group starts at %.3f, must start at 0.58", name, cum)
				}
				if g.Frac < 0.019 || g.Frac > 0.021 {
					t.Fatalf("%s: thrash group frac %.3f, must be 0.02", name, g.Frac)
				}
				found = true
			}
			cum += g.Frac
		}
		if !found {
			t.Fatalf("%s: no thrash group", name)
		}
	}
}
