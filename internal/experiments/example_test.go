package experiments_test

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Construct any evaluated scheme by name.
func ExampleNewScheme() {
	geom := sim.Geometry{Sets: 16, Ways: 4, LineSize: 64}
	cache, err := experiments.NewScheme("DIP", geom, 42)
	if err != nil {
		panic(err)
	}
	fmt.Println(cache.Name(), cache.Geometry().CapacityBytes(), "bytes")
	// Output:
	// DIP 4096 bytes
}

// The Table 3 storage analysis.
func ExampleTable3() {
	r := experiments.Table3()
	fmt.Printf("STEM storage overhead: %.2f%% (paper: 3.1%%)\n", 100*r.OverheadFraction)
	// Output:
	// STEM storage overhead: 3.16% (paper: 3.1%)
}

// Describe a workload by its set-level structure and measure it.
func ExampleRunWorkload() {
	w := trace.Workload{
		Name: "demo", APKI: 20, WriteFrac: 0.25,
		Groups: []trace.Group{
			{Name: "givers", Frac: 0.5, Weight: 0.5, Pat: trace.Pattern{Kind: trace.Scan}},
			{Name: "takers", Frac: 0.5, Weight: 1.0, Pat: trace.Pattern{Kind: trace.Cyclic, N: 12}},
		},
	}
	cfg := experiments.RunConfig{
		Geom:    sim.Geometry{Sets: 64, Ways: 8, LineSize: 64},
		Warmup:  50_000,
		Measure: 100_000,
	}
	lru, _ := experiments.RunWorkload(w, "LRU", cfg)
	st, _ := experiments.RunWorkload(w, "STEM", cfg)
	fmt.Printf("STEM reduces the miss rate: %v\n", st.MissRate < lru.MissRate)
	// Output:
	// STEM reduces the miss rate: true
}
