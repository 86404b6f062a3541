package experiments

import (
	"testing"

	"repro/internal/sim"
)

func ablationRun() RunConfig {
	return RunConfig{
		Geom:    sim.Geometry{Sets: 256, Ways: 16, LineSize: 64},
		Warmup:  80_000,
		Measure: 250_000,
	}
}

func TestComponentVariantsShape(t *testing.T) {
	vs := ComponentVariants()
	if len(vs) != 5 || vs[0].Name != "STEM" {
		t.Fatalf("variants %v", vs)
	}
}

func TestParameterVariants(t *testing.T) {
	for _, p := range []string{"k", "n", "m", "heap"} {
		vs, err := ParameterVariants(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) != 5 {
			t.Fatalf("%s: %d variants", p, len(vs))
		}
	}
	if _, err := ParameterVariants("zz"); err == nil {
		t.Fatal("unknown parameter accepted")
	}
}

func TestAblateComponentsOnClassI(t *testing.T) {
	// On a Class I analog, removing either dimension must cost performance:
	// full STEM <= spatial-only and <= temporal-only (within noise).
	tbl, err := Ablate(ComponentVariants(), []string{"omnetpp"}, ablationRun())
	if err != nil {
		t.Fatal(err)
	}
	full, _ := tbl.Get("omnetpp", "STEM")
	spatial, _ := tbl.Get("omnetpp", "spatial-only")
	temporal, _ := tbl.Get("omnetpp", "temporal-only")
	if full <= 0 || full >= 1 {
		t.Fatalf("full STEM normalized MPKI %v not an improvement", full)
	}
	if full > spatial*1.05 {
		t.Fatalf("full STEM (%v) worse than spatial-only (%v)", full, spatial)
	}
	if full > temporal*1.05 {
		t.Fatalf("full STEM (%v) worse than temporal-only (%v)", full, temporal)
	}
	// Both single-dimension variants must still beat LRU on Class I — each
	// dimension has real headroom there.
	if spatial >= 1.0 || temporal >= 1.0 {
		t.Fatalf("single dimensions gained nothing: spatial %v, temporal %v", spatial, temporal)
	}
}

func TestAblateUnconstrainedReceiveCostsQuietSets(t *testing.T) {
	// On ammp (quiet givers), SBC-style unconstrained receiving must not be
	// better than the constrained design.
	tbl, err := Ablate(ComponentVariants(), []string{"ammp"}, ablationRun())
	if err != nil {
		t.Fatal(err)
	}
	full, _ := tbl.Get("ammp", "STEM")
	sbcish, _ := tbl.Get("ammp", "sbc-receive")
	if full > sbcish*1.05 {
		t.Fatalf("constrained receive (%v) clearly worse than unconstrained (%v)", full, sbcish)
	}
}

func TestAblateErrors(t *testing.T) {
	if _, err := Ablate(ComponentVariants(), []string{"nope"}, ablationRun()); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestAblateDefaultBenchSet(t *testing.T) {
	tbl, err := Ablate(ComponentVariants()[:1], nil, ablationRun())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows()) != 5 { // 4 defaults + geomean
		t.Fatalf("rows %v", tbl.Rows())
	}
}
