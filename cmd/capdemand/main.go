// Command capdemand reproduces the paper's Figure 1: the distribution of
// set-level capacity demands across sampling periods, computed with the
// per-set stack-distance profiler of §3.1 (2048 sets, 50 000 accesses per
// period, 32-way horizon).
//
// Usage:
//
//	capdemand -bench omnetpp -periods 1000
//	capdemand -bench ammp -csv > ammp.csv
//	capdemand -bench omnetpp -metrics :6060   # watch feed progress live
package main

import (
	"flag"
	"fmt"
	"os"

	stem "repro"
	"repro/internal/obs"
	"repro/internal/profile"
)

func main() {
	var (
		bench     = flag.String("bench", "omnetpp", "benchmark analog (paper uses omnetpp and ammp)")
		periods   = flag.Int("periods", 1000, "number of sampling periods (paper: 1000)")
		perPeriod = flag.Int("per-period", 50_000, "accesses per period (paper: 50000)")
		maxWays   = flag.Int("max-ways", 32, "associativity horizon (paper: 32)")
		seed      = flag.Uint64("seed", 0x57E4, "workload seed")
		csv       = flag.Bool("csv", false, "emit per-period CSV instead of the mean table")
	)
	toolCfg := obs.ToolFlags(flag.CommandLine, "capdemand", obs.ToolFlagSet{Pprof: true})
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "capdemand:", err)
		os.Exit(1)
	}

	b, err := stem.BenchmarkByName(*bench)
	if err != nil {
		fail(err)
	}

	tool, err := obs.StartTool(*toolCfg)
	if err != nil {
		fail(err)
	}
	defer tool.Close()
	var reg *obs.Registry
	if tool != nil {
		reg = tool.Registry
	}

	// Drive the profiler directly (rather than through stem.Figure1) so the
	// metrics endpoint can report feed progress while the run is live.
	gen := stem.NewGenerator(b.Workload, stem.PaperGeometry, *seed)
	d := stem.NewDemandProfiler(stem.PaperGeometry, *perPeriod, *maxWays)
	var (
		fed      = reg.Counter("feed.accesses")
		periodsG = reg.Gauge("feed.periods_done")
		totalG   = reg.Gauge("feed.periods_total")
		perChunk = *perPeriod
		nperiods = *periods
	)
	totalG.Set(float64(nperiods))
	for p := 0; p < nperiods; p++ {
		for i := 0; i < perChunk; i++ {
			d.Feed(gen.Next().Block)
		}
		fed.Add(uint64(perChunk))
		periodsG.Set(float64(p + 1))
	}
	dists := d.Periods()

	bands := *maxWays/2 + 1
	if *csv {
		// One row per period, one column per demand band — the data behind
		// the paper's stacked-area chart.
		fmt.Print("period")
		for b := 0; b < bands; b++ {
			fmt.Printf(",%q", profile.BandLabel(b))
		}
		fmt.Println()
		for i, p := range dists {
			fmt.Print(i + 1)
			for b := 0; b < bands; b++ {
				fmt.Printf(",%.4f", p.Fraction(b))
			}
			fmt.Println()
		}
		return
	}

	fmt.Printf("Figure 1 (%s): mean share of sets per capacity-demand band over %d periods\n\n",
		*bench, len(dists))
	for b := bands - 1; b >= 0; b-- {
		frac := meanFraction(dists, b)
		bar := int(frac*60 + 0.5)
		fmt.Printf("%8s  %6.2f%%  %s\n", profile.BandLabel(b), 100*frac, stars(bar))
	}
}

func meanFraction(dists []profile.PeriodDist, b int) float64 {
	if len(dists) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range dists {
		sum += p.Fraction(b)
	}
	return sum / float64(len(dists))
}

func stars(n int) string {
	s := make([]byte, n)
	for i := range s {
		s[i] = '#'
	}
	return string(s)
}
