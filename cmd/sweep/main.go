// Command sweep reproduces the paper's associativity sweeps: Figure 3 (the
// five baseline schemes) and Figure 10 (the same panels with STEM added),
// as MPKI-vs-associativity tables.
//
// Usage:
//
//	sweep -bench omnetpp                       # Figure 10 panel (all six)
//	sweep -bench ammp -schemes LRU,DIP,SBC     # custom subset
//	sweep -bench omnetpp -fig3                 # Figure 3 panel (no STEM)
//	sweep -bench ammp -csv -o ammp_sweep.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	stem "repro"
	"repro/internal/obs"
)

func main() {
	var (
		bench   = flag.String("bench", "omnetpp", "benchmark analog")
		schemes = flag.String("schemes", "", "comma-separated schemes (default: all six)")
		fig3    = flag.Bool("fig3", false, "baseline-only panel (drop STEM), as in Figure 3")
		assocs  = flag.String("assocs", "", "comma-separated associativities (default: the paper's 1..32 ticks)")
		warmup  = flag.Int("warmup", 400_000, "warm-up accesses per point")
		measure = flag.Int("measure", 1_200_000, "measured accesses per point")
		seed    = flag.Uint64("seed", 0x57E4, "run seed")
		csv     = flag.Bool("csv", false, "emit CSV instead of the aligned table")
		outPath = flag.String("o", "", "write the table to this file instead of stdout")
	)
	toolCfg := obs.ToolFlags(flag.CommandLine, "sweep", obs.ToolFlagSet{
		Pprof: true, Trace: "trace", TraceHelp: "write mechanism events as JSONL to this file", Snapshots: true,
	})
	flag.Parse()

	tool, err := obs.StartTool(*toolCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
	defer tool.Close()

	cfg := stem.SweepConfig{
		Benchmark: *bench,
		Run:       stem.RunConfig{Warmup: *warmup, Measure: *measure, Seed: *seed, Obs: tool.Options()},
	}
	switch {
	case *schemes != "":
		cfg.Schemes = strings.Split(*schemes, ",")
	case *fig3:
		cfg.Schemes = []string{"LRU", "DIP", "PELIFO", "VWAY", "SBC"}
	}
	if *assocs != "" {
		for _, a := range strings.Split(*assocs, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(a))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad associativity %q: %v\n", a, err)
				os.Exit(1)
			}
			cfg.Assocs = append(cfg.Assocs, v)
		}
	}

	tbl, err := stem.Sweep(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}
	if *csv {
		fmt.Fprint(out, tbl.CSV())
		return
	}
	fmt.Fprint(out, tbl.String())
}
