// Command paperrepro regenerates every table and figure of the paper's
// evaluation in one run: Figure 1 (capacity-demand characterization),
// Figure 2 (synthetic examples), Figure 3 and Figure 10 (associativity
// sweeps), Table 2 (baseline MPKI), Figures 7-9 (the main normalized
// comparison) and Table 3 (hardware overhead) — plus the beyond-the-paper
// studies: the STEM mechanism/parameter ablations, the RRIP-family
// extension comparison, and the seed-robustness replication.
//
// Usage:
//
//	paperrepro             # full run (~10 min on one core)
//	paperrepro -quick      # scaled-down run (~2 min)
//	paperrepro -only fig7  # one experiment (fig1,fig2,fig3,fig7,fig8,fig9,
//	                       #   fig10,table2,table3,ablation,extension,replicate)
//	paperrepro -o report.txt -metrics :6060   # report to file, live metrics
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	stem "repro"
	"repro/internal/obs"
)

// now is the tool's injectable wall clock (nanoseconds). All simulation
// results are seed-deterministic; the clock only times report sections, and
// tests swap it for a fake to pin the printed durations.
var now = func() int64 { return time.Now().UnixNano() } //lint:allow(determinism) tool boundary: wall-clock section timing only, never simulation state

// sectionTimer returns the report's section helper: it prints the banner
// for title and returns a closure that prints the elapsed wall time taken
// from clock when the section finishes.
func sectionTimer(out io.Writer, clock func() int64) func(title string) func() {
	return func(title string) func() {
		start := clock()
		fmt.Fprintf(out, "==== %s ====\n", title)
		return func() { fmt.Fprintf(out, "(%.1fs)\n\n", float64(clock()-start)/1e9) }
	}
}

func main() {
	var (
		quick   = flag.Bool("quick", false, "scaled-down run for a fast end-to-end check")
		only    = flag.String("only", "", "run a single experiment (fig1,fig2,fig3,fig7,fig8,fig9,fig10,table2,table3,ablation,extension,replicate)")
		seed    = flag.Uint64("seed", 0x57E4, "run seed")
		csvDir  = flag.String("csvdir", "", "also write each table as CSV into this directory")
		outPath = flag.String("o", "", "write the report to this file instead of stdout")
	)
	toolCfg := obs.ToolFlags(flag.CommandLine, "paperrepro", obs.ToolFlagSet{
		Pprof: true, Trace: "trace", TraceHelp: "write mechanism events as JSONL to this file", Snapshots: true,
	})
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "paperrepro:", err)
		os.Exit(1)
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		out = f
	}

	// The experiment matrices run their (benchmark, scheme) cells in
	// parallel on one shared registry: counters aggregate across cells,
	// snapshot gauges show whichever cell published last.
	tool, err := obs.StartTool(*toolCfg)
	if err != nil {
		fail(err)
	}
	defer tool.Close()

	writeCSV := func(name string, t *stem.Table) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fail(err)
		}
		path := filepath.Join(*csvDir, name+".csv")
		if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
			fail(err)
		}
	}

	run := stem.RunConfig{Warmup: 1_000_000, Measure: 3_000_000, Seed: *seed}
	sweepRun := stem.RunConfig{Warmup: 300_000, Measure: 900_000, Seed: *seed}
	fig1Periods := 1000
	if *quick {
		run = stem.RunConfig{Warmup: 300_000, Measure: 900_000, Seed: *seed}
		sweepRun = stem.RunConfig{Warmup: 150_000, Measure: 450_000, Seed: *seed}
		fig1Periods = 100
	}
	run.Obs = tool.Options()
	sweepRun.Obs = tool.Options()

	want := func(name string) bool {
		return *only == "" || strings.EqualFold(*only, name)
	}
	section := sectionTimer(out, now)

	if want("fig1") {
		done := section("Figure 1: set-level capacity demand distributions")
		omnet, err := stem.Figure1(stem.Fig1Config{Benchmark: "omnetpp", Periods: fig1Periods, Seed: *seed})
		if err != nil {
			fail(err)
		}
		ammp, err := stem.Figure1(stem.Fig1Config{Benchmark: "ammp", Periods: fig1Periods, Seed: *seed})
		if err != nil {
			fail(err)
		}
		tbl := stem.Figure1Table(omnet, ammp)
		fmt.Fprint(out, tbl.String())
		writeCSV("fig1", tbl)
		done()
	}

	if want("fig2") {
		done := section("Figure 2: synthetic two-set examples")
		fmt.Fprintln(out, "ex    LRU meas/paper   DIP meas/paper   SBC meas/paper   STEM meas")
		for _, r := range stem.Figure2(*seed) {
			fmt.Fprintf(out, "#%d    %.3f / %.3f    %.3f / %.3f    %.3f / %.3f    %.3f\n",
				r.Example, r.LRU, r.ExpLRU, r.DIP, r.ExpDIP, r.SBC, r.ExpSBC, r.STEM)
		}
		fmt.Fprintln(out, "(paper DIP column assumes oracle knowledge of the working sets;")
		fmt.Fprintln(out, " STEM on #2 is the paper's 'extensional example')")
		done()
	}

	if want("fig3") {
		done := section("Figure 3: MPKI vs associativity, baseline schemes")
		for _, b := range []string{"omnetpp", "ammp"} {
			tbl, err := stem.Sweep(stem.SweepConfig{
				Benchmark: b,
				Schemes:   []string{"LRU", "DIP", "PELIFO", "VWAY", "SBC"},
				Run:       sweepRun,
			})
			if err != nil {
				fail(err)
			}
			fmt.Fprint(out, tbl.String())
			writeCSV("fig3_"+b, tbl)
			fmt.Fprintln(out)
		}
		done()
	}

	var cmp *stem.Comparison
	if want("fig7") || want("fig8") || want("fig9") || want("table2") {
		done := section("Figures 7-9 + Table 2: the 15-benchmark comparison")
		var err error
		cmp, err = stem.MainComparison(run)
		if err != nil {
			fail(err)
		}
		if want("table2") {
			fmt.Fprint(out, cmp.Table2.String())
			writeCSV("table2", cmp.Table2)
			fmt.Fprintln(out)
		}
		if want("fig7") {
			fmt.Fprint(out, cmp.MPKI.String())
			writeCSV("fig7", cmp.MPKI)
			fmt.Fprintln(out)
		}
		if want("fig8") {
			fmt.Fprint(out, cmp.AMAT.String())
			writeCSV("fig8", cmp.AMAT)
			fmt.Fprintln(out)
		}
		if want("fig9") {
			fmt.Fprint(out, cmp.CPI.String())
			writeCSV("fig9", cmp.CPI)
			fmt.Fprintln(out)
		}
		if g, ok := cmp.MPKI.Get("Geomean", "STEM"); ok {
			fmt.Fprintf(out, "STEM geomean improvement over LRU: MPKI %.1f%% (paper: 21.4%%)",
				100*(1-g))
			if a, ok := cmp.AMAT.Get("Geomean", "STEM"); ok {
				fmt.Fprintf(out, ", AMAT %.1f%% (13.5%%)", 100*(1-a))
			}
			if c, ok := cmp.CPI.Get("Geomean", "STEM"); ok {
				fmt.Fprintf(out, ", CPI %.1f%% (6.3%%)", 100*(1-c))
			}
			fmt.Fprintln(out)
		}
		done()
	}

	if want("fig10") {
		done := section("Figure 10: sensitivity sweeps with STEM")
		for _, b := range []string{"omnetpp", "ammp"} {
			tbl, err := stem.Sweep(stem.SweepConfig{Benchmark: b, Run: sweepRun})
			if err != nil {
				fail(err)
			}
			fmt.Fprint(out, tbl.String())
			writeCSV("fig10_"+b, tbl)
			fmt.Fprintln(out)
		}
		done()
	}

	if want("ablation") {
		done := section("Ablations (beyond the paper): STEM mechanisms and parameters")
		tbl, err := stem.Ablate(stem.ComponentVariants(), nil, sweepRun)
		if err != nil {
			fail(err)
		}
		fmt.Fprint(out, tbl.String())
		writeCSV("ablation_components", tbl)
		fmt.Fprintln(out)
		for _, p := range []string{"k", "n", "m", "heap"} {
			vs, err := stem.ParameterVariants(p)
			if err != nil {
				fail(err)
			}
			tbl, err := stem.Ablate(vs, []string{"omnetpp", "ammp"}, sweepRun)
			if err != nil {
				fail(err)
			}
			fmt.Fprint(out, tbl.String())
			fmt.Fprintln(out)
		}
		done()
	}

	if want("extension") {
		done := section("Extension (beyond the paper): STEM vs the RRIP family")
		tbl, err := stem.ExtensionComparison(sweepRun)
		if err != nil {
			fail(err)
		}
		fmt.Fprint(out, tbl.String())
		writeCSV("extension_rrip", tbl)
		fmt.Fprintln(out)
		done()
	}

	if want("replicate") {
		done := section("Replication (beyond the paper): seed robustness")
		res, err := stem.Replicate(sweepRun, []uint64{0x57E4, 1, 2, 3, 4})
		if err != nil {
			fail(err)
		}
		tbl := stem.ReplicationTable(res)
		fmt.Fprint(out, tbl.String())
		writeCSV("replication", tbl)
		fmt.Fprintln(out)
		done()
	}

	if want("table3") {
		done := section("Table 3: hardware overhead")
		r := stem.Table3()
		fmt.Fprintf(out, "tag bits %d, rank bits %d, %d-bit shadow signatures\n",
			r.TagBits, r.RankBits, 10)
		fmt.Fprintf(out, "CC bits        %8d\n", r.CCBits)
		fmt.Fprintf(out, "shadow store   %8d\n", r.ShadowBits)
		fmt.Fprintf(out, "counters       %8d\n", r.CounterBits)
		fmt.Fprintf(out, "assoc table    %8d\n", r.AssocTableBits)
		fmt.Fprintf(out, "selector heap  %8d\n", r.HeapBits)
		fmt.Fprintf(out, "total extra    %8d bits over %d baseline bits = %.2f%% (paper: 3.1%%)\n",
			r.ExtraBits(), r.BaselineDataBits+r.BaselineTagBits, 100*r.OverheadFraction)
		done()
	}
}
