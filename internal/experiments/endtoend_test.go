package experiments

// End-to-end checks of the paper's three class-level claims, each one
// analog through RunWorkload at a 128-set, 16-way LLC.

import (
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/workloads"
)

// endToEndCfg is the run every class-level check uses.
var endToEndCfg = RunConfig{Geom: sim.Geometry{Sets: 128, Ways: 16, LineSize: 64}, Warmup: 60_000, Measure: 200_000}

// runPair runs the named analog under two schemes with endToEndCfg.
func runPair(t *testing.T, bench, a, b string) (RunResult, RunResult) {
	t.Helper()
	w, err := workloads.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := RunWorkload(w.Workload, a, endToEndCfg)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := RunWorkload(w.Workload, b, endToEndCfg)
	if err != nil {
		t.Fatal(err)
	}
	return ra, rb
}

func TestSchemesList(t *testing.T) {
	want := []string{"LRU", "DIP", "PELIFO", "VWAY", "SBC", "STEM"}
	if !slices.Equal(SchemeNames, want) {
		t.Fatalf("SchemeNames = %v, want %v (the paper's presentation order)", SchemeNames, want)
	}
}

func TestPaperGeometryIs2MB(t *testing.T) {
	if PaperGeometry.CapacityBytes() != 2<<20 {
		t.Fatalf("paper geometry capacity %d, want 2MB", PaperGeometry.CapacityBytes())
	}
}

func TestEndToEndSTEMBeatsLRUOnClassI(t *testing.T) {
	// The omnetpp analog at 16 ways is STEM's showcase.
	lru, st := runPair(t, "omnetpp", "LRU", "STEM")
	if st.MPKI >= lru.MPKI*0.9 {
		t.Fatalf("STEM MPKI %v vs LRU %v: no clear Class I win", st.MPKI, lru.MPKI)
	}
	if st.AMAT >= lru.AMAT || st.CPI >= lru.CPI {
		t.Fatalf("STEM AMAT/CPI (%v/%v) not better than LRU (%v/%v)",
			st.AMAT, st.CPI, lru.AMAT, lru.CPI)
	}
	if st.Stats.Couplings == 0 || st.Stats.SecondaryHits == 0 {
		t.Fatalf("STEM never exercised cooperative caching: %+v", st.Stats)
	}
}

func TestEndToEndSTEMMatchesDIPOnClassII(t *testing.T) {
	dip, st := runPair(t, "cactusADM", "DIP", "STEM")
	// "STEM performs as well as DIP for the benchmarks of Class II" — allow
	// a modest band around parity.
	if st.MPKI > dip.MPKI*1.15 {
		t.Fatalf("STEM MPKI %v far above DIP %v on Class II", st.MPKI, dip.MPKI)
	}
	if st.Stats.PolicySwaps == 0 {
		t.Fatal("STEM never swapped per-set policies on a thrashing workload")
	}
}

func TestEndToEndNoHarmOnClassIII(t *testing.T) {
	for _, name := range []string{"gobmk", "gromacs", "vpr"} {
		lru, st := runPair(t, name, "LRU", "STEM")
		if st.MPKI > lru.MPKI*1.03 {
			t.Errorf("%s: STEM MPKI %v worse than LRU %v on a Class III analog",
				name, st.MPKI, lru.MPKI)
		}
	}
}
