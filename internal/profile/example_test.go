package profile_test

import (
	"fmt"

	"repro/internal/profile"
	"repro/internal/sim"
)

// Profile a workload's set-level capacity demands (paper §3.1).
func ExampleNewDemand() {
	geom := sim.Geometry{Sets: 4, Ways: 16, LineSize: 64}
	p := profile.NewDemand(geom, 4000, 32)
	// Set 0 cycles 8 blocks (demand 8); the rest stream (demand 0).
	for i := 0; i < 4000; i++ {
		if i%2 == 0 {
			p.Feed(geom.BlockFor(uint64(i/2%8)+1, 0))
		} else {
			p.Feed(geom.BlockFor(uint64(i)+1, 1+i%3))
		}
	}
	p.Flush()
	last := p.Periods()[0]
	fmt.Printf("sets with demand 7-8: %d, with demand 0: %d\n",
		last.Counts[4], last.Counts[0])
	// Output:
	// sets with demand 7-8: 1, with demand 0: 3
}
