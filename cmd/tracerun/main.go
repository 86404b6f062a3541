// Command tracerun replays a recorded reference trace through one or more
// cache-management schemes — the adoption path for running real traces
// (converted from pin/ChampSim/Dinero tooling) instead of the synthetic
// analogs.
//
// Usage:
//
//	tracerun -trace app.trc.gz                       # all six schemes
//	tracerun -trace app.trc -schemes LRU,STEM
//	tracerun -din app.din -line 64 -schemes STEM     # Dinero text input
//	tracerun -trace app.trc -schemes STEM -events ev.jsonl -metrics :6060
//	tracerun -record omnetpp -n 5000000 -trace out.trc.gz   # capture an analog
//
// The event log (-events; -trace already names the input) covers the
// measured portion of every replayed scheme in sequence.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	stem "repro"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/tracefile"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "native trace file (.trc or .trc.gz)")
		dinPath   = flag.String("din", "", "Dinero-style text trace")
		line      = flag.Int("line", 64, "cache line size for -din address conversion")
		schemes   = flag.String("schemes", strings.Join(stem.Schemes(), ","), "comma-separated schemes")
		sets      = flag.Int("sets", stem.PaperGeometry.Sets, "cache sets")
		ways      = flag.Int("ways", stem.PaperGeometry.Ways, "associativity")
		warmFrac  = flag.Float64("warm", 0.25, "fraction of the trace used as warm-up")
		seed      = flag.Uint64("seed", 0x57E4, "scheme seed")
		record    = flag.String("record", "", "record this benchmark analog instead of replaying")
		recordN   = flag.Int("n", 5_000_000, "references to record with -record")
	)
	toolCfg := obs.ToolFlags(flag.CommandLine, "tracerun", obs.ToolFlagSet{
		Pprof: true, Trace: "events", TraceHelp: "write mechanism events as JSONL to this file (-trace is the input)", Snapshots: true,
	})
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "tracerun:", err)
		os.Exit(1)
	}

	geom := stem.Geometry{Sets: *sets, Ways: *ways, LineSize: *line}
	if *record != "" {
		if *tracePath == "" {
			fail(fmt.Errorf("-record needs -trace for the output path"))
		}
		if err := recordTrace(*tracePath, *record, *recordN, geom, *seed); err != nil {
			fail(err)
		}
		fmt.Printf("recorded %d references of %s to %s\n", *recordN, *record, *tracePath)
		return
	}

	refs, err := loadRefs(*tracePath, *dinPath, *line)
	if err != nil {
		fail(err)
	}
	if len(refs) < 100 {
		fail(fmt.Errorf("trace too short: %d references", len(refs)))
	}
	warm := int(float64(len(refs)) * *warmFrac)
	if warm < 1 || warm >= len(refs) {
		fail(fmt.Errorf("-warm %v leaves %d warm-up and %d measured references; need at least one of each",
			*warmFrac, warm, len(refs)-warm))
	}

	tool, err := obs.StartTool(*toolCfg)
	if err != nil {
		fail(err)
	}
	defer tool.Close()

	fmt.Printf("trace: %d references (%d warm-up), %d sets x %d ways\n\n",
		len(refs), warm, *sets, *ways)
	fmt.Println("scheme     miss-rate     MPKI     AMAT      CPI")
	for _, name := range strings.Split(*schemes, ",") {
		name = strings.TrimSpace(name)
		res, err := replay(refs, name, geom, *seed, warm, tool.Options())
		if err != nil {
			fail(err)
		}
		fmt.Printf("%-8s   %9.4f  %7.3f  %7.2f  %7.3f\n",
			name, res.MissRate, res.MPKI, res.AMAT, res.CPI)
	}
}

// recordTrace captures n references of the named benchmark analog to path.
func recordTrace(path, bench string, n int, geom stem.Geometry, seed uint64) error {
	b, err := stem.BenchmarkByName(bench)
	if err != nil {
		return err
	}
	w, err := tracefile.Create(path, tracefile.Header{LineSize: uint32(geom.LineSize)})
	if err != nil {
		return err
	}
	if err := tracefile.Record(w, stem.NewGenerator(b.Workload, geom, seed), n); err != nil {
		return err
	}
	return w.Close()
}

// loadRefs reads the whole input trace: the native format from tracePath,
// else Dinero text from dinPath (addresses converted at lineSize).
func loadRefs(tracePath, dinPath string, lineSize int) ([]stem.Ref, error) {
	switch {
	case tracePath != "":
		r, err := tracefile.Open(tracePath)
		if err != nil {
			return nil, err
		}
		defer r.Close()
		var refs []stem.Ref
		for {
			ref, err := r.Next()
			if err == io.EOF {
				return refs, nil
			}
			if err != nil {
				return nil, err
			}
			refs = append(refs, ref)
		}
	case dinPath != "":
		f, err := os.Open(dinPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return tracefile.ParseDin(f, lineSize)
	}
	return nil, fmt.Errorf("need -trace, -din or -record (see -help)")
}

// replay runs refs once through a fresh instance of the named scheme: the
// first warm references unmeasured, the rest through the run harness — the
// same warm-up / reset / trace-attach / snapshot sequence every other tool
// uses, so the event log and the counters in o (shared across the sequential
// scheme replays) reconcile with the reported stats.
func replay(refs []stem.Ref, scheme string, geom stem.Geometry, seed uint64, warm int, o *obs.Options) (stem.RunResult, error) {
	c, err := stem.NewScheme(scheme, geom, seed)
	if err != nil {
		return stem.RunResult{}, err
	}
	return stem.Run(c, trace.NewFixed(refs), stem.RunConfig{
		Geom: geom, Warmup: warm, Measure: len(refs) - warm, Obs: o,
	}), nil
}
