package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Build the paper's STEM LLC and run it over a deterministic workload.
func ExampleNew() {
	geom := sim.Geometry{Sets: 2, Ways: 4, LineSize: 64}
	cache := core.New(geom, core.Config{Seed: 7})
	gen := trace.Figure2(1) // the paper's Figure 2 example #1
	for i := 0; i < 1200; i++ {
		r := gen.Next()
		cache.Access(sim.Access{Block: r.Block, Write: r.Write})
	}
	cache.ResetStats()
	for i := 0; i < 1200; i++ {
		r := gen.Next()
		cache.Access(sim.Access{Block: r.Block, Write: r.Write})
	}
	fmt.Printf("steady-state miss rate: %.3f\n", cache.Stats().MissRate())
	// Output:
	// steady-state miss rate: 0.000
}
