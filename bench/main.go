// Command bench is the repository's benchmark: seven seeded workloads over
// the simulator (core, basecache), the library (stemcache), the server path
// (wire, server, client) and the cluster (cluster, membership). See
// README.md in this directory for the workloads, the metric glossary and how
// the numbers interact, and ../BENCHMARK.json for the contract a run is
// checked against.
//
//	go -C bench run .                                  # all workloads, end-to-end metrics
//	go -C bench run . -traced                          # ... then the traced runs: per-layer metrics and budgets
//	go -C bench run . -workload serve-get -seed 21     # one workload; the last stdout line is the result as JSON
//	go -C bench run . -workload lib-mixed -trace 1     # one traced run
//	go -C bench run . -json a.json                     # append the runs to a run-set file
//	go -C bench run . -compare a.json b.json           # judge run set b against run set a
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"

	"repro/internal/stemcache"
)

// metrics maps a metric name to its measured value.
type metrics map[string]float64

// metricDef declares a metric: BENCHMARK.json lists the same names, units
// and directions (bench_test.go holds the two together).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload from its untraced run. bound is the share of the parent's median
// a metric may worsen by before -compare (and the driver) calls it a
// regression. What each means per workload is in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"p50_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"hit_rate", "ratio", "higher", 0.02},
	{"miss_norm", "ratio", "lower", 0.03},
}

func layer(unit, better string, names ...string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{Name: n, Unit: unit, Better: better}
	}
	return out
}

// perLayer are the single-layer metrics of a traced run. A metric whose
// layer is not on a workload's path reads 0 there.
var perLayer = concat(
	layer("ns", "lower",
		"wire.get_req_encode_ns", "wire.get_req_decode_ns", "wire.get_resp_encode_ns", "wire.get_resp_decode_ns",
		"wire.set_req_encode_ns", "wire.set_req_decode_ns", "wire.mget16_req_encode_ns", "wire.mget16_req_decode_ns",
		"wire.mget16_resp_encode_ns", "wire.mget16_resp_decode_ns"),
	layer("count", "lower", "wire.allocs_per_frame"),
	layer("B", "lower", "wire.bytes_per_op"),
	layer("ns", "lower",
		"stemcache.get_hit_ns", "stemcache.get_miss_ns", "stemcache.set_insert_ns", "stemcache.set_overwrite_ns",
		"stemcache.setttl_ns", "stemcache.delete_ns", "stemcache.lru_get_hit_ns"),
	layer("ratio", "lower", "stemcache.stem_over_lru_ns_ratio"),
	layer("ratio", "higher", "stemcache.par_speedup"),
	layer("1/kop", "lower", "stemcache.evictions_per_kop"),
	layer("1/kop", "higher", "stemcache.spills_per_kop", "stemcache.couplings_per_kop",
		"stemcache.policy_swaps_per_kop", "stemcache.expirations_per_kop"),
	layer("ratio", "higher", "stemcache.shadow_hit_ratio", "stemcache.secondary_hit_share"),
	layer("count", "higher", "stemcache.taker_sets", "stemcache.giver_sets", "stemcache.coupled_sets"),
	layer("count", "lower", "stemcache.allocs_per_get", "stemcache.allocs_per_set"),
	layer("B", "lower", "stemcache.heap_bytes_per_entry"),
	layer("pp", "higher", "stemcache.hit_gain_pp"),
	layer("us", "lower",
		"server.queue_handle_p50_us", "server.queue_handle_p99_us",
		"server.decode_p99_us", "server.handle_p99_us", "server.write_p99_us"),
	layer("count", "lower", "server.conns"),
	layer("us", "lower",
		"client.rtt_p50_us", "client.rtt_p99_us", "client.rtt_p999_us", "client.rtt_max_us",
		"client.net_p50_us", "client.net_p99_us", "client.batch16_do_p50_us"),
	layer("count", "lower", "client.allocs_per_op", "client.retries", "client.errors"),
	layer("us", "lower",
		"cluster.get_p50_us", "cluster.set_p50_us", "cluster.mget16_p50_us", "cluster.route_self_us"),
	layer("count", "lower", "cluster.partial_errors", "cluster.readback_missing"),
	layer("us", "lower", "membership.replicate_self_us"),
	layer("count", "lower", "membership.fanout_writes_per_set"),
	layer("ns", "lower", "core.ns_per_access", "basecache.ns_per_access", "trace.next_ns_per_ref"),
	layer("ratio", "lower", "core.over_lru_host_ratio", "core.secondary_probe_ratio"),
	layer("ratio", "higher", "core.secondary_hit_ratio"),
	layer("1/kacc", "higher", "core.spills_per_kaccess", "core.couplings_per_kaccess",
		"core.policy_swaps_per_kaccess", "core.shadow_hits_per_kaccess"),
	layer("mpki", "lower",
		"core.mpki.omnetpp", "core.mpki.mcf", "core.mpki.twolf",
		"basecache.mpki.omnetpp", "basecache.mpki.mcf", "basecache.mpki.twolf"),
	layer("ratio", "lower", "core.stem_mpki_norm", "basecache.lru_mpki_err"),
	layer("ns", "lower", "workloads.keygen_ns_per_key", "bench.clock_ns"),
	layer("%", "lower", "obs.metrics_on_cost_pct", "obs.trace_every1_cost_pct", "bench.trace_overhead_pct"),
	layer("us", "lower", "bench.p50_us", "bench.p99_us", "bench.gen_late_p99_us",
		"open.p99_us.5k", "open.p99_us.15k", "open.p99_us.30k"),
	layer("ops/s", "higher", "open.max_rate_ok"),
)

func concat(parts ...[]metricDef) (out []metricDef) {
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// workload is one entry of the suite; the names are stable, later issues
// cite them. A gated workload is listed in BENCHMARK.json, so the driver runs
// it and holds its end-to-end metrics to their bounds. cluster-rf2 is not:
// its timings follow the host's contention more than proportionally (the
// same binary ran at 31 k, 60 k and 105 k ops/s in consecutive invocations,
// spread 25-40 % over ten runs even at reference host speed), which no bound
// the contract allows would survive. It runs in the suite and under -compare
// like the others.
type workload struct {
	name  string
	gated bool
	run   func(cfg runConfig) (*result, error)
}

var suite = []workload{
	{"serve-get", true, func(cfg runConfig) (*result, error) {
		return runServeClosed(cfg, "serve-get", "zipf", serveGetOpsPerS, 1, (*serveRig).getRange)
	}},
	{"serve-batch", true, func(cfg runConfig) (*result, error) {
		return runServeClosed(cfg, "serve-batch", "mixed", serveBatchOpsPerS, batchDepth, (*serveRig).batchRange)
	}},
	{"serve-open", true, runServeOpen},
	{"lib-mixed", true, func(cfg runConfig) (*result, error) { return runLib(cfg, "lib-mixed", libMixedOpsPerS, mixedChunks) }},
	{"lib-churn", true, func(cfg runConfig) (*result, error) { return runLib(cfg, "lib-churn", libChurnOpsPerS, churnChunks) }},
	{"sim-suite", true, runSimSuite},
	{"cluster-rf2", false, runCluster},
}

// runConfig is one run's arguments.
type runConfig struct {
	seed      uint64
	seconds   float64
	traced    bool
	outDir    string              // where a traced run writes its spans
	goldenOut map[string]simStats // non-nil: collect sim-suite goldens instead of checking them
}

// baseSlices is how many untraced slices a run measures first: the whole
// phase, or in a traced run just the slices the reference covers, as the base
// the traced phase's overheads are a share of.
func (c runConfig) baseSlices() int {
	if c.traced {
		return refSlices
	}
	return nSlices
}

// scale sizes a phase: perSecond units for each second of --seconds, at
// least minimum.
func (c runConfig) scale(perSecond float64, minimum int) int {
	return max(int(perSecond*c.seconds), minimum)
}

// result is one run of one workload.
type result struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Traced    bool     `json:"traced"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	M         metrics  `json:"metrics"`
	Notes     []string `json:"notes,omitempty"`
	budget    *budget
}

func newResult(cfg runConfig, name string) *result {
	return &result{Workload: name, Seed: cfg.seed, Traced: cfg.traced, M: metrics{}}
}

// setUpReps is how many times an untraced run repeats its set-up; setup_s is
// the median, so one slow allocation or listen does not move it.
const setUpReps = 3

// setUp times the workload's set-up: generating its inputs and building the
// program under test, scaled to reference host speed like every timing.
// build returns the teardown of what it built; every repetition but the last
// is torn down at once.
func (r *result) setUp(build func() (teardown func(), err error)) error {
	reps := setUpReps
	if r.Traced {
		reps = 1
	}
	var secs, raw []float64
	for i := 0; i < reps; i++ {
		speed0 := hostSpeed()
		t0 := now()
		teardown, err := build()
		if err != nil {
			return fmt.Errorf("%s: set-up: %w", r.Workload, err)
		}
		el := float64(now()-t0) / 1e9
		raw = append(raw, el)
		secs = append(secs, el*(speed0+hostSpeed())/2)
		if i < reps-1 {
			teardown()
		}
		// Collect what the repetition left behind outside its timing, so
		// neither the next one nor the measured phase pays for it and the
		// heap's high-water mark does not depend on when the collector
		// happened to run.
		runtime.GC()
	}
	r.M["setup_s"] = median(secs)
	r.M["raw.setup_s"] = median(raw)
	return nil
}

func (r *result) count(st loopStat) {
	r.Attempted += st.ops
	r.Failed += st.failed
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail records one violated output check as one failed operation.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	r.note(format, args...)
}

// checkCache enforces the cache's own accounting identity.
func (r *result) checkCache(which string, st stemcache.Stats) {
	if st.Gets != st.Hits+st.Misses {
		r.fail("%s: cache Gets %d != Hits %d + Misses %d", which, st.Gets, st.Hits, st.Misses)
	}
}

// tracedLatency reports the traced phase's latency distribution (of the
// workload's unit of latency, as measured).
func (r *result) tracedLatency(h *hist) {
	r.M["bench.p50_us"] = h.quantile(0.50) / 1e3
	r.M["bench.p99_us"] = h.quantile(0.99) / 1e3
}

// traceOut folds a traced phase's spans into the budget and writes them out.
func (r *result) traceOut(cfg runConfig, logs []*spanLog, callsPerRoot float64) error {
	b := fold(logs, callsPerRoot)
	r.budget = &b
	return writeSpans(cfg.outDir, r.Workload, logs)
}

func (r *result) finish() {
	r.M["peak_rss_mb"] = peakRSSMB()
	r.M["fail_rate"] = float64(r.Failed) / float64(max(r.Attempted, 1))
}

// declared returns the metric list a run of this kind must report.
func declared(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// print writes every metric by name with its unit, then the notes and the
// budget table. Undeclared names are diagnostics of the same run.
func (r *result) print() {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Printf("== %s  seed %#x  %s  attempted %d  failed %d\n", r.Workload, r.Seed, mode, r.Attempted, r.Failed)
	seen := map[string]bool{}
	for _, d := range declared(r.Traced) {
		seen[d.Name] = true
		if v, ok := r.M[d.Name]; ok {
			fmt.Printf("  %-36s %16.4f %s\n", d.Name, v, d.Unit)
		}
	}
	var extra []string
	for name := range r.M {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Printf("  %-36s %16.4f (diagnostic)\n", name, r.M[name])
	}
	for _, n := range r.Notes {
		fmt.Printf("  note: %s\n", n)
	}
	if r.budget != nil {
		fmt.Printf("  budget, mean %.1f ns per op (%.1f%% of it in ops slower than p99):\n%s",
			r.budget.perOp, 100*r.budget.tailShare, r.budget)
	}
}

// line is the driver's contract: the last stdout line of a single-workload
// run, with exactly the declared metrics.
func (r *result) line() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]mv{}}
	for _, d := range declared(r.Traced) {
		v := r.M[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.Name] = mv{v, d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Sprintf(`{"correct":false,"error":%q}`, err)
	}
	return string(b)
}

func main() {
	var (
		name     = flag.String("workload", "", "run one workload and end with its JSON result line (default: the whole suite)")
		seed     = flag.Uint64("seed", 0x57E4, "seed of every generated input")
		seconds  = flag.Float64("seconds", 8, "how long a measured phase lasts on the reference box (op counts are frozen per second)")
		trace    = flag.Int("trace", 0, "1: traced run, per-layer metrics; 0: untraced run, end-to-end metrics")
		traced   = flag.Bool("traced", false, "suite mode: follow each untraced run with its traced run")
		smoke    = flag.Bool("smoke", false, "tiny sizes, a few seconds in total: checks the harness, not the program")
		jsonPath = flag.String("json", "", "append every run to this run-set file (input of -compare)")
		compare  = flag.Bool("compare", false, "compare two run-set files: bench -compare A.json B.json")
		outDir   = flag.String("out", "out", "directory a traced run writes its spans to")
		goldens  = flag.Bool("update-goldens", false, "rewrite goldens.json from this build's sim-suite (default seed, default and smoke sizes)")
	)
	flag.Parse()
	var err error
	switch {
	case *compare && flag.NArg() == 2:
		err = compareFiles(flag.Arg(0), flag.Arg(1))
	case *compare:
		err = fmt.Errorf("-compare takes two run-set files")
	case *goldens:
		err = updateGoldens()
	default:
		if *smoke {
			*seconds, walkSteps = smokeSeconds, calSteps/100
		}
		modes := []bool{*trace == 1}
		if *name == "" && *traced {
			modes = []bool{false, true}
		}
		err = runSuite(*name, runConfig{seed: *seed, seconds: *seconds, outDir: *outDir}, modes, *jsonPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// smokeSeconds sizes -smoke: every phase shrinks to its minimum or close.
const smokeSeconds = 0.02

// runSuite runs the named workload (or all of them) once per mode — untraced,
// traced — and prints what they report.
func runSuite(name string, cfg runConfig, modes []bool, jsonPath string) error {
	if cfg.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	var runs []*result
	var names []string
	for _, w := range suite {
		names = append(names, w.name)
		if name != "" && name != w.name {
			continue
		}
		for _, cfg.traced = range modes {
			res, err := w.run(cfg)
			if err != nil {
				return err
			}
			res.print()
			runs = append(runs, res)
		}
	}
	if len(runs) == 0 {
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	if jsonPath != "" {
		if err := appendRuns(jsonPath, runs); err != nil {
			return err
		}
	}
	if name != "" {
		// A single-workload run reports failed checks in its result line.
		fmt.Println(runs[len(runs)-1].line())
		return nil
	}
	for _, r := range runs {
		if r.Failed > 0 {
			return fmt.Errorf("output checks failed")
		}
	}
	return nil
}

// updateGoldens reruns sim-suite at the default seed for the two sizes the
// goldens cover and rewrites goldens.json.
func updateGoldens() error {
	out := map[string]simStats{}
	for _, seconds := range []float64{8, smokeSeconds} {
		if _, err := runSimSuite(runConfig{seed: 0x57E4, seconds: seconds, goldenOut: out}); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("goldens.json", append(b, '\n'), 0o644)
}
