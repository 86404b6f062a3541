// Quickstart: build the paper's STEM LLC and the LRU baseline, run both on
// the omnetpp analog (a Class I workload with non-uniform set-level
// capacity demands), and compare the paper's three metrics.
package main

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	// The paper's standard configuration: 2MB, 16-way, 64-byte lines.
	geom := experiments.PaperGeometry
	cfg := experiments.RunConfig{Geom: geom, Warmup: 500_000, Measure: 1_500_000}

	// Pick a workload. The suite has an analog for each of the paper's 15
	// SPEC benchmarks; omnetpp is Class I, STEM's home turf.
	bench, err := workloads.ByName("omnetpp")
	if err != nil {
		panic(err)
	}
	fmt.Printf("workload: %s (class %d, paper LRU MPKI %.2f)\n\n",
		bench.Name, bench.Class, bench.PaperMPKI)

	fmt.Println("scheme     miss-rate     MPKI     AMAT      CPI")
	for _, scheme := range []string{"LRU", "STEM"} {
		res, err := experiments.RunWorkload(bench.Workload, scheme, cfg)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-8s   %9.4f  %7.3f  %7.2f  %7.3f\n",
			scheme, res.MissRate, res.MPKI, res.AMAT, res.CPI)
	}

	// The same machinery works for hand-rolled workloads: describe the
	// set-level structure and let the generator do the rest.
	custom := trace.Workload{
		Name: "custom", APKI: 20, WriteFrac: 0.3,
		Groups: []trace.Group{
			// Half the sets stream (no reuse), half cycle through a working
			// set 1.5x the associativity — the classic giver/taker mix.
			{Name: "givers", Frac: 0.5, Weight: 0.5, Pat: trace.Pattern{Kind: trace.Scan}},
			{Name: "takers", Frac: 0.5, Weight: 1.0, Pat: trace.Pattern{Kind: trace.Cyclic, N: 24}},
		},
	}
	fmt.Println("\ncustom giver/taker workload:")
	for _, scheme := range []string{"LRU", "DIP", "SBC", "STEM"} {
		res, err := experiments.RunWorkload(custom, scheme, cfg)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-8s   miss-rate %.4f   (couplings %d, spills %d, policy swaps %d)\n",
			scheme, res.MissRate, res.Stats.Couplings+res.Stats.Decouplings,
			res.Stats.Spills, res.Stats.PolicySwaps)
	}
}
