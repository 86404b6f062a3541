// Command stemsim is the simulator tier's one front door: it runs a
// reference stream through the cache-management schemes, records streams to
// trace files, and regenerates every table and figure of the paper.
//
// Usage:
//
//	stemsim run -bench omnetpp -schemes STEM            # one analog, one or more schemes
//	stemsim run -bench ammp -schemes LRU,SBC -ways 8 -measure 2000000
//	stemsim run -bench omnetpp -metrics :6060 -trace events.jsonl
//	stemsim run -replay app.trc.gz -schemes LRU,STEM    # a recorded stream
//	stemsim run -din app.din -line 64                   # Dinero text input, all six schemes
//	stemsim record -bench omnetpp -n 5000000 -o omnetpp.trc.gz
//	stemsim paper -quick                                # every experiment, scaled down (27 s on 2 cores; full: 70 s)
//	stemsim paper -only fig7,table2 -csvdir csv         # named rows of the experiment table
//	stemsim paper -only fig10 -bench ammp -schemes LRU,STEM -assocs 4,8,16 -csv -o ammp.csv
//	stemsim list                                        # analogs, schemes, experiments
//
// A recorded stream replays bit-identically to the live run it was taken
// from: `record -n W+M` then `run -replay -warmup W` prints what `run -bench
// -warmup W -measure M` prints.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracefile"
	"repro/internal/workloads"
)

// params holds every flag's value; each verb registers the subset it takes.
type params struct {
	bench, schemes, replay, din, only, assocs, csvDir, out string
	warmup, measure, n, periods                            int
	geom                                                   sim.Geometry
	seed                                                   uint64
	quick, csv                                             bool

	obs *obs.Options // live sinks of the -metrics/-trace block; nil when off
	w   io.Writer    // the report: stdout or the -o file
	err error        // first failure writing a -csvdir file; a reporting verb returns it
}

// define is the one place a flag is declared.
func (p *params) define(fs *flag.FlagSet) {
	fs.StringVar(&p.bench, "bench", "", "benchmark analog (stemsim list names them); paper: restrict fig1/fig3/fig10 to it (default omnetpp and ammp)")
	fs.StringVar(&p.schemes, "schemes", "", "comma-separated schemes (default: the paper's six; fig3 drops STEM)")
	fs.StringVar(&p.replay, "replay", "", "replay this native trace file (.trc or .trc.gz) instead of an analog")
	fs.StringVar(&p.din, "din", "", "replay this Dinero-style text trace (addresses converted at -line)")
	fs.IntVar(&p.geom.Sets, "sets", experiments.PaperGeometry.Sets, "number of cache sets (power of two)")
	fs.IntVar(&p.geom.Ways, "ways", experiments.PaperGeometry.Ways, "associativity")
	fs.IntVar(&p.geom.LineSize, "line", experiments.PaperGeometry.LineSize, "line size in bytes")
	fs.IntVar(&p.warmup, "warmup", 0, "warm-up accesses, unmeasured (0 = default: 1000000 for an analog, a quarter of a replayed trace, the experiment's own size)")
	fs.IntVar(&p.measure, "measure", 0, "measured accesses (0 = default: 3000000 for an analog, the rest of a replayed trace, the experiment's own size)")
	fs.Uint64Var(&p.seed, "seed", 0x57E4, "run seed")
	fs.IntVar(&p.n, "n", 5_000_000, "references to record")
	fs.BoolVar(&p.quick, "quick", false, "scaled-down experiments for a fast end-to-end check")
	fs.StringVar(&p.only, "only", "", "comma-separated experiments to run (default all): "+strings.Join(experimentNames(), ","))
	fs.StringVar(&p.assocs, "assocs", "", "comma-separated associativities for fig3/fig10 (default: the paper's 1..32 ticks)")
	fs.IntVar(&p.periods, "periods", 0, "fig1 sampling periods of 50000 accesses (0 = default: 1000, 100 with -quick)")
	fs.BoolVar(&p.csv, "csv", false, "emit the tables as CSV instead of the aligned report")
	fs.StringVar(&p.csvDir, "csvdir", "", "also write each table as a CSV file into this directory")
	fs.StringVar(&p.out, "o", "", "output file: the report (default stdout), or the trace to record")
}

// verb is one subcommand.
type verb struct {
	name, summary string
	// flags names the params flags the verb takes.
	flags []string
	// report marks a verb that simulates: it also takes the observability
	// flag block and writes its report to -o.
	report bool
	do     func(p *params) error
}

var verbs = []verb{
	{"run", "run one reference stream (-bench analog, -replay or -din file) through one or more schemes",
		[]string{"bench", "replay", "din", "schemes", "sets", "ways", "line", "warmup", "measure", "seed", "csv", "o"}, true, runVerb},
	{"record", "capture -n references of a -bench analog to the trace file -o",
		[]string{"bench", "n", "o", "sets", "ways", "line", "seed"}, false, recordVerb},
	{"paper", "regenerate the paper's tables and figures (rows of the experiment table; see -only)",
		[]string{"quick", "only", "bench", "schemes", "assocs", "periods", "warmup", "measure", "seed", "csv", "csvdir", "o"}, true, paperVerb},
	{"list", "list the benchmark analogs, schemes and experiments", nil, false, listVerb},
}

func main() {
	if err := stemsim(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "stemsim:", err)
		os.Exit(1)
	}
}

// stemsim runs one invocation: args[0] names the verb, the rest are its
// flags. Everything the verb prints goes to stdout (or the -o file).
func stemsim(args []string, stdout io.Writer) error {
	var usage strings.Builder
	usage.WriteString("usage: stemsim VERB [flags]   (stemsim VERB -h lists a verb's flags)\n")
	for _, v := range verbs {
		fmt.Fprintf(&usage, "  %-7s %s\n", v.name, v.summary)
	}
	if len(args) == 0 {
		return errors.New("no verb given\n" + usage.String())
	}
	i := slices.IndexFunc(verbs, func(v verb) bool { return v.name == args[0] })
	if i < 0 {
		return fmt.Errorf("unknown verb %q\n%s", args[0], usage.String())
	}
	v := verbs[i]

	p := params{w: stdout}
	all := flag.NewFlagSet("", flag.ContinueOnError)
	p.define(all)
	fs := flag.NewFlagSet("stemsim "+v.name, flag.ContinueOnError)
	for _, name := range v.flags {
		f := all.Lookup(name)
		fs.Var(f.Value, f.Name, f.Usage)
	}
	var toolCfg *obs.ToolConfig
	if v.report {
		toolCfg = obs.ToolFlags(fs, "stemsim", obs.ToolFlagSet{
			Pprof: true, Trace: true, TraceHelp: `write mechanism events as JSONL to this file ("-" for stdout)`, Snapshots: true,
		})
	}
	if err := fs.Parse(args[1:]); err != nil {
		return err // flag.ErrHelp after -h: the flag package has printed the verb's flags
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("%s: unexpected argument %q", v.name, fs.Arg(0))
	}
	if !v.report {
		return v.do(&p)
	}

	// The experiment matrices run their cells in parallel on one shared
	// registry: counters aggregate across cells, snapshot gauges show
	// whichever cell published last.
	tool, err := obs.StartTool(*toolCfg)
	if err != nil {
		return err
	}
	defer tool.Close()
	p.obs = tool.Options()
	if p.out == "" {
		return v.do(&p)
	}
	f, err := os.Create(p.out)
	if err != nil {
		return err
	}
	defer f.Close() // for the error paths; success reports the Close below
	p.w = f
	if err := v.do(&p); err != nil {
		return err
	}
	return f.Close()
}

// table sends one table to the reader: aligned text on the report — or CSV
// under -csv, tables separated by the blank lines CSV readers skip — and
// NAME.csv under -csvdir. The first file error sticks in p.err.
func (p *params) table(name string, t *stats.Table) {
	if p.csv {
		fmt.Fprintln(p.w, t.CSV())
	} else {
		fmt.Fprintln(p.w, t.String())
	}
	if p.csvDir == "" || p.err != nil {
		return
	}
	if p.err = os.MkdirAll(p.csvDir, 0o755); p.err == nil {
		p.err = os.WriteFile(filepath.Join(p.csvDir, name+".csv"), []byte(t.CSV()), 0o644)
	}
}

// note adds a line of prose to the text report; a CSV stream carries tables
// only.
func (p *params) note(format string, args ...any) {
	if !p.csv {
		fmt.Fprintf(p.w, format+"\n", args...)
	}
}

// list splits a comma-separated flag value.
func list(s string) []string {
	return strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' })
}

// schemeList parses -schemes; an empty flag yields def. experiments.NewScheme
// is the one judge of the names, so a bad one fails where it is first built.
func (p *params) schemeList(def []string) []string {
	if p.schemes == "" {
		return def
	}
	return list(p.schemes)
}

// runVerb drives one reference stream — generated by an analog or read from
// a file — through every scheme. Every scheme sees the identical stream,
// drawn once per core in use; with -trace or -metrics the schemes run one
// after another, so the event log and the registry cover the measured
// portion of each scheme in sequence.
func runVerb(p *params) error {
	cfg := experiments.RunConfig{Geom: p.geom, Seed: p.seed, Obs: p.obs}
	file := cmp.Or(p.replay, p.din)
	var open func() trace.Generator // a fresh pass over the stream
	switch {
	case p.bench != "" && file != "":
		return errors.New("run: -bench and -replay/-din are alternatives")
	case file != "":
		refs, err := loadRefs(p.replay, p.din, p.geom.LineSize)
		if err != nil {
			return err
		}
		cfg.Warmup = cmp.Or(p.warmup, len(refs)/4)
		cfg.Measure = cmp.Or(p.measure, len(refs)-cfg.Warmup)
		if cfg.Warmup < 1 || cfg.Measure < 1 || cfg.Warmup+cfg.Measure > len(refs) {
			return fmt.Errorf("run: %d warm-up + %d measured references do not fit the trace's %d; need at least one of each",
				cfg.Warmup, cfg.Measure, len(refs))
		}
		open = func() trace.Generator { return trace.NewFixed(refs) } // every pass reads the one loaded slice
		p.note("trace       %s (%d references)", file, len(refs))
	case p.bench != "":
		b, err := workloads.ByName(p.bench)
		if err != nil {
			return err
		}
		cfg.Warmup, cfg.Measure = cmp.Or(p.warmup, 1_000_000), cmp.Or(p.measure, 3_000_000)
		open = func() trace.Generator { return trace.NewGen(b.Workload, p.geom, p.seed) }
		p.note("benchmark   %s (class %v, paper LRU MPKI %.3f)", b.Name, b.Class, b.PaperMPKI)
	default:
		return errors.New("run: need a stream: -bench NAME, -replay FILE or -din FILE")
	}

	p.note("geometry    %d sets x %d ways x %dB = %d KB\naccesses    %d measured (after %d warm-up)\n",
		p.geom.Sets, p.geom.Ways, p.geom.LineSize, p.geom.CapacityBytes()/1024, cfg.Measure, cfg.Warmup)
	// RunStream seeds each scheme as RunWorkload does: a cell here is that
	// cell of any matrix. Observed, it is Run's, log and stats.
	names := p.schemeList(experiments.SchemeNames)
	results, err := experiments.RunStream(open, names, cfg)
	if err != nil {
		return err
	}
	tbl := stats.NewTable("", "scheme", "miss-rate", "MPKI", "AMAT", "CPI")
	var counts []string
	for i, name := range names {
		res := results[i]
		tbl.Set(name, "miss-rate", res.MissRate)
		tbl.Set(name, "MPKI", res.MPKI)
		tbl.Set(name, "AMAT", res.AMAT)
		tbl.Set(name, "CPI", res.CPI)
		// The spills and swaps printed here are what the -trace event log
		// must reconcile with.
		st := res.Stats
		counts = append(counts, fmt.Sprintf("%-7s hits %d  misses %d  writebacks %d  secondary probes %d  secondary hits %d  couplings %d  decouplings %d  spills %d  policy swaps %d  shadow hits %d",
			name, st.Hits, st.Misses, st.Writebacks, st.SecondaryRefs, st.SecondaryHits, st.Couplings, st.Decouplings, st.Spills, st.PolicySwaps, st.ShadowHits))
	}
	p.table("run", tbl)
	p.note("%s", strings.Join(counts, "\n"))
	return p.err
}

func recordVerb(p *params) error {
	if p.bench == "" || p.out == "" {
		return errors.New("record: need -bench NAME and -o FILE")
	}
	if err := recordTrace(p.out, p.bench, p.n, p.geom, p.seed); err != nil {
		return err
	}
	fmt.Fprintf(p.w, "recorded %d references of %s to %s\n", p.n, p.bench, p.out)
	return nil
}

// recordTrace captures n references of the named benchmark analog to path.
func recordTrace(path, bench string, n int, geom sim.Geometry, seed uint64) error {
	if err := geom.Validate(); err != nil {
		return err
	}
	b, err := workloads.ByName(bench)
	if err != nil {
		return err
	}
	w, err := tracefile.Create(path, tracefile.Header{LineSize: uint32(geom.LineSize)})
	if err != nil {
		return err
	}
	if err := tracefile.Record(w, trace.NewGen(b.Workload, geom, seed), n); err != nil {
		return err
	}
	return w.Close()
}

// loadRefs reads the whole input trace: the native format from tracePath,
// else Dinero text from dinPath (addresses converted at lineSize).
func loadRefs(tracePath, dinPath string, lineSize int) ([]trace.Ref, error) {
	f, err := os.Open(cmp.Or(tracePath, dinPath))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if tracePath == "" {
		return tracefile.ParseDin(f, lineSize)
	}
	_, refs, err := tracefile.ReadAll(f)
	return refs, err
}

func listVerb(p *params) error {
	fmt.Fprintln(p.w, "benchmark  class  paper-LRU-MPKI")
	for _, b := range workloads.Suite() {
		fmt.Fprintf(p.w, "%-10s %-5v %8.3f\n", b.Name, b.Class, b.PaperMPKI)
	}
	fmt.Fprintf(p.w, "\nschemes     %s\nextensions  %s\n\nexperiment  (stemsim paper -only NAME[,NAME...])\n",
		strings.Join(experiments.SchemeNames, ", "), strings.Join(experiments.ExtensionSchemeNames, ", "))
	for _, e := range rows {
		fmt.Fprintf(p.w, "%-10s  %s\n", e.name, e.title)
	}
	return nil
}
