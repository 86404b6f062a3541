// Synthetic: replay the paper's Figure 2 — three deterministic workloads on
// a toy two-set, four-way LLC that isolate the difference between temporal
// (DIP) and spatial (SBC) capacity management, and the gap STEM closes.
//
// Working set 0 cycles through six blocks A..F mapped to LLC set 0; working
// set 1 holds 2, 3 or 5 blocks in LLC set 1 depending on the example. With
// two blocks (example #1) the pairing is perfect and SBC/STEM cache both
// working sets entirely; with three (example #2) the cooperative capacity is
// insufficient and only a scheme that manages both dimensions at once keeps
// the miss rate low (the paper's "extensional example"); with five
// (example #3) there is no spare capacity anywhere and only the insertion
// policy can help.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	fmt.Println("Figure 2 geometry: 2 sets x 4 ways")
	fmt.Println()
	fmt.Println("ex   ws1   LRU meas (paper)   DIP meas (paper*)   SBC meas (paper)   STEM meas")
	ws1 := map[int]int{1: 2, 2: 3, 3: 5}
	for _, r := range experiments.Figure2(0) {
		fmt.Printf("#%d    %d    %.3f (%.3f)       %.3f (%.3f)        %.3f (%.3f)       %.3f\n",
			r.Example, ws1[r.Example],
			r.LRU, r.ExpLRU, r.DIP, r.ExpDIP, r.SBC, r.ExpSBC, r.STEM)
	}
	fmt.Println()
	fmt.Println("* the paper's DIP column assumes an oracle that already knows the")
	fmt.Println("  working sets; the measured column runs real set-dueling, which on a")
	fmt.Println("  two-set cache has no follower sets to adapt.")
	fmt.Println()

	// Drive example #2 step by step to watch STEM work: the taker (set 0)
	// couples with the giver (set 1), spills victims into it, and swaps its
	// own policy when the shadow set shows BIP winning.
	cache := core.New(trace.Figure2Geometry, core.Config{Seed: 7})
	gen := trace.Figure2(2)
	for i := 0; i < 4000; i++ {
		r := gen.Next()
		cache.Access(sim.Access{Block: r.Block, Write: r.Write})
	}
	st := cache.Stats()
	fmt.Printf("STEM on example #2 after %d accesses:\n", st.Accesses)
	fmt.Printf("  miss rate %.3f (paper bound for the extensional example: <= 0.167+)\n", st.MissRate())
	fmt.Printf("  couplings %d, spills %d, cooperative hits %d, policy swaps %d\n",
		st.Couplings, st.Spills, st.SecondaryHits, st.PolicySwaps)
}
