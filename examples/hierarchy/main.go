// Hierarchy: run the full Table 1 memory hierarchy — split 32KB L1I/L1D, a
// 16-byte half-speed bus, and a 2MB LLC — over a CPU-level byte-address
// stream, and measure AMAT/CPI directly instead of estimating them from the
// LLC stream.
//
// This is the measurement path behind the paper's Figures 8 and 9: every
// CPU access pays the L1 hit time, L1 misses pay the §5.1 L2 latencies
// (including the 12/20-cycle double-probe costs of SBC/STEM coupling), and
// L1 writebacks cross the bus without blocking the demand path.
package main

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	geom := experiments.PaperGeometry
	bench, err := workloads.ByName("omnetpp")
	if err != nil {
		panic(err)
	}

	fmt.Println("Table 1 hierarchy: 32KB 2-way L1I/L1D, 16B half-speed bus, 2MB LLC")
	fmt.Printf("workload: %s, expanded to 4 CPU accesses per cached line\n\n", bench.Name)
	fmt.Println("L2 scheme    L1D miss%   L2 MPKI    AMAT     CPI   bus-util   L1D->L2 writebacks")

	for _, scheme := range []string{"LRU", "DIP", "STEM"} {
		l2, err := experiments.NewScheme(scheme, geom, 42)
		if err != nil {
			panic(err)
		}
		h := mem.NewHierarchy(l2, mem.HierarchyConfig{Seed: 7})
		cpu := trace.NewCPULevel(
			trace.NewGen(bench.Workload, geom, 1),
			geom.LineSize,
			4, // each line touched four times at the CPU level
		)
		// Warm both levels, then measure.
		const warm, measure = 800_000, 2_400_000
		for i := 0; i < warm; i++ {
			addr, write, _ := cpu.NextByte()
			h.Data(addr, write, 0)
		}
		l2.ResetStats()
		before := h.Stats() // hierarchy stats keep accumulating; diff them
		for i := 0; i < measure; i++ {
			addr, write, instrs := cpu.NextByte()
			h.Data(addr, write, instrs)
		}
		st := h.Stats()
		l1dAcc := st.L1DAccesses - before.L1DAccesses
		l1dMiss := st.L1DMisses - before.L1DMisses
		fmt.Printf("%-10s   %8.2f%%  %8.3f  %6.2f  %6.3f   %7.4f   %d\n",
			scheme,
			100*float64(l1dMiss)/float64(l1dAcc),
			h.MPKI(), h.AMAT(), h.CPI(), h.BusUtilization(),
			st.Writebacks-before.Writebacks)
	}

	fmt.Println()
	fmt.Println("Because the L1 filters the repeats, the LLC sees the same set-level")
	fmt.Println("stream the trace-level harness uses — but AMAT/CPI here are measured")
	fmt.Println("over real L1 accesses rather than estimated from per-benchmark rates.")
}
