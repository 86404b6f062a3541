// Command stemsim runs one benchmark analog through one cache-management
// scheme and reports the paper's metrics (miss rate, MPKI, AMAT, CPI) plus
// the scheme's mechanism counters.
//
// Usage:
//
//	stemsim -bench omnetpp -scheme STEM
//	stemsim -bench ammp -scheme SBC -ways 8 -measure 2000000
//	stemsim -bench omnetpp -metrics :6060 -trace events.jsonl
//	stemsim -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	stem "repro"
	"repro/internal/obs"
)

func main() {
	var (
		bench   = flag.String("bench", "omnetpp", "benchmark analog name (see -list)")
		scheme  = flag.String("scheme", "STEM", "scheme: "+strings.Join(stem.Schemes(), ", "))
		sets    = flag.Int("sets", stem.PaperGeometry.Sets, "number of cache sets (power of two)")
		ways    = flag.Int("ways", stem.PaperGeometry.Ways, "associativity")
		line    = flag.Int("line", stem.PaperGeometry.LineSize, "line size in bytes")
		warmup  = flag.Int("warmup", 1_000_000, "warm-up accesses (unmeasured)")
		measure = flag.Int("measure", 3_000_000, "measured accesses")
		seed    = flag.Uint64("seed", 0x57E4, "run seed")
		list    = flag.Bool("list", false, "list benchmarks and exit")
	)
	toolCfg := obs.ToolFlags(flag.CommandLine, "stemsim", obs.ToolFlagSet{
		Pprof: true, Trace: "trace", TraceHelp: `write mechanism events as JSONL to this file ("-" for stdout)`, Snapshots: true,
	})
	flag.Parse()

	if *list {
		fmt.Println("benchmark  class  paper-LRU-MPKI")
		for _, b := range stem.Benchmarks() {
			fmt.Printf("%-10s I%-4d %8.3f\n", b.Name, b.Class, b.PaperMPKI)
		}
		return
	}

	b, err := stem.BenchmarkByName(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tool, err := obs.StartTool(*toolCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stemsim:", err)
		os.Exit(1)
	}
	defer tool.Close()

	cfg := stem.RunConfig{
		Geom:    stem.Geometry{Sets: *sets, Ways: *ways, LineSize: *line},
		Warmup:  *warmup,
		Measure: *measure,
		Seed:    *seed,
		Obs:     tool.Options(),
	}
	res, err := stem.RunWorkload(b.Workload, *scheme, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("benchmark   %s (class %d)\n", b.Name, b.Class)
	fmt.Printf("scheme      %s\n", res.Scheme)
	fmt.Printf("geometry    %d sets x %d ways x %dB = %d KB\n",
		cfg.Geom.Sets, cfg.Geom.Ways, cfg.Geom.LineSize, cfg.Geom.CapacityBytes()/1024)
	fmt.Printf("accesses    %d measured (after %d warm-up)\n", res.Stats.Accesses, cfg.Warmup)
	fmt.Println()
	fmt.Printf("miss rate   %.4f\n", res.MissRate)
	fmt.Printf("MPKI        %.3f   (paper LRU reference: %.3f)\n", res.MPKI, b.PaperMPKI)
	fmt.Printf("AMAT        %.2f cycles\n", res.AMAT)
	fmt.Printf("CPI         %.3f\n", res.CPI)
	fmt.Println()
	st := res.Stats
	fmt.Printf("hits %d  misses %d  writebacks %d\n", st.Hits, st.Misses, st.Writebacks)
	if st.SecondaryRefs > 0 {
		fmt.Printf("secondary probes %d  secondary hits %d\n", st.SecondaryRefs, st.SecondaryHits)
	}
	if st.Couplings > 0 || st.Spills > 0 {
		fmt.Printf("couplings %d  decouplings %d  spills %d\n", st.Couplings, st.Decouplings, st.Spills)
	}
	if st.PolicySwaps > 0 {
		fmt.Printf("per-set policy swaps %d\n", st.PolicySwaps)
	}
	if st.ShadowHits > 0 {
		fmt.Printf("shadow-directory hits %d\n", st.ShadowHits)
	}
}
