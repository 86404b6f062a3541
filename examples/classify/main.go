// Classify: demonstrate the paper's three-way workload taxonomy (Figure 6)
// by running one representative analog from each class through all six
// schemes, plus the §3.1 capacity-demand profiler that tells the classes
// apart before any scheme runs.
//
//   - Class I (ammp): non-uniform set-level demand — spatial headroom.
//   - Class II (mcf): poor temporal locality — temporal headroom.
//   - Class III (twolf): LRU is already sufficient.
package main

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	geom := sim.Geometry{Sets: 512, Ways: 16, LineSize: 64}
	cfg := experiments.RunConfig{Geom: geom, Warmup: 300_000, Measure: 900_000}

	for _, name := range []string{"ammp", "mcf", "twolf"} {
		b, err := workloads.ByName(name)
		if err != nil {
			panic(err)
		}
		fmt.Printf("== %s (Class %d) ==\n", b.Name, b.Class)

		// First, characterize: what do the sets actually need? The profiler
		// measures, per set, the minimum lines that would resolve all
		// conflict misses a 32-way set would resolve.
		prof := profile.NewDemand(geom, 50_000, 32)
		gen := trace.NewGen(b.Workload, geom, 1)
		for i := 0; i < 250_000; i++ {
			prof.Feed(gen.Next().Block)
		}
		prof.Flush()
		last := prof.Periods()[len(prof.Periods())-1]
		low, mid, high := 0.0, 0.0, 0.0
		for band := 0; band < last.Bands(); band++ {
			switch {
			case band <= 4: // demand 0-8
				low += last.Fraction(band)
			case band <= 8: // demand 9-16
				mid += last.Fraction(band)
			default: // demand 17-32
				high += last.Fraction(band)
			}
		}
		fmt.Printf("set demand:  %4.0f%% of sets need <=8 lines, %4.0f%% need 9-16, %4.0f%% need 17-32\n",
			100*low, 100*mid, 100*high)

		// Then run the schemes and normalize to LRU.
		lru, err := experiments.RunWorkload(b.Workload, "LRU", cfg)
		if err != nil {
			panic(err)
		}
		fmt.Printf("LRU MPKI %.3f; normalized:", lru.MPKI)
		for _, scheme := range []string{"DIP", "PELIFO", "VWAY", "SBC", "STEM"} {
			res, err := experiments.RunWorkload(b.Workload, scheme, cfg)
			if err != nil {
				panic(err)
			}
			fmt.Printf("  %s %.3f", scheme, res.MPKI/lru.MPKI)
		}
		fmt.Println()
		fmt.Println()
	}
	fmt.Println("Reading: Class I rewards spatial schemes (SBC/STEM), Class II rewards")
	fmt.Println("temporal schemes (DIP/PELIFO/STEM), Class III rewards leaving LRU alone —")
	fmt.Println("and STEM is the only scheme competitive in all three rows.")
}
