// Package stem is the public API of this repository: a from-scratch Go
// reproduction of "STEM: Spatiotemporal Management of Capacity for
// Intra-Core Last Level Caches" (Zhan, Jiang, Seth — MICRO 2010).
//
// The package re-exports, behind one import, everything a downstream user
// needs:
//
//   - the STEM last-level-cache model itself (New) and the five baseline
//     schemes of the paper's evaluation — LRU, DIP, PeLIFO, V-Way and SBC —
//     via NewScheme;
//   - the trace model and synthetic workload machinery (NewGenerator,
//     Benchmarks, the Figure-2 toy workloads);
//   - the per-set capacity-demand profiler of the paper's §3.1;
//   - the timing model (AMAT/CPI) and run harness;
//   - one experiment runner per table and figure of the paper (Figure1,
//     Figure2, Sweep, MainComparison, Table3);
//   - a production-style concurrent key-value cache (Cache, NewCache) whose
//     eviction engine is the paper's mechanism — the reproduction turned
//     into a usable library.
//
// # Quickstart
//
//	cache, _ := stem.NewScheme("STEM", stem.PaperGeometry, 42)
//	gen := stem.NewGenerator(stem.MustBenchmark("omnetpp").Workload, stem.PaperGeometry, 1)
//	res := stem.Run(cache, gen, stem.RunConfig{})
//	fmt.Printf("MPKI %.3f  AMAT %.1f\n", res.MPKI, res.AMAT)
//
// See examples/ for runnable programs and DESIGN.md for the system
// inventory and the paper-to-module map.
package stem

import (
	"io"

	"repro/internal/basecache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/policy"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/stemcache"
	"repro/internal/trace"
	"repro/internal/tracefile"
	"repro/internal/workloads"
)

// Core simulation types.
type (
	// Geometry describes a cache organization (sets × ways × line size).
	Geometry = sim.Geometry
	// Access is one block-level reference presented to a cache.
	Access = sim.Access
	// Outcome describes what one access did (hit, secondary probe, ...).
	Outcome = sim.Outcome
	// Stats aggregates a simulator's counters.
	Stats = sim.Stats
	// Simulator is the interface every cache-management scheme implements.
	Simulator = sim.Simulator
	// RNG is the deterministic random stream used across the repository.
	RNG = sim.RNG
)

// Workload and trace types.
type (
	// Ref is one trace record: a block access plus retired instructions.
	Ref = trace.Ref
	// Generator produces an unbounded reference stream.
	Generator = trace.Generator
	// Pattern parameterizes a per-set synthetic access pattern.
	Pattern = trace.Pattern
	// Group assigns a pattern to a fraction of a cache's sets.
	Group = trace.Group
	// Workload is a full synthetic benchmark specification.
	Workload = trace.Workload
	// Benchmark is one entry of the 15-analog SPEC substitute suite.
	Benchmark = workloads.Benchmark
	// Class is the paper's workload taxonomy (I, II, III).
	Class = workloads.Class
)

// Pattern kinds, re-exported for workload construction.
const (
	Cyclic  = trace.Cyclic
	Zipf    = trace.Zipf
	Stream  = trace.Stream
	Pairs   = trace.Pairs
	HotCold = trace.HotCold
	Scan    = trace.Scan
)

// Workload classes.
const (
	ClassI   = workloads.ClassI
	ClassII  = workloads.ClassII
	ClassIII = workloads.ClassIII
)

// STEM configuration and analysis.
type (
	// Config parameterizes a STEM cache (counter width k, spatial shift n,
	// signature width m, selector size; paper Table 3 defaults).
	Config = core.Config
	// OverheadReport is the paper's Table 3 storage analysis.
	OverheadReport = core.OverheadReport
)

// Timing and metrics.
type (
	// Timing holds the latency parameters of the paper's §5.1.
	Timing = mem.Timing
	// Account folds access outcomes into MPKI/AMAT/CPI.
	Account = mem.Account
	// Table is a labeled numeric matrix used by the experiment reports.
	Table = stats.Table
	// Hierarchy drives CPU-level streams through the Table 1 L1I/L1D and
	// bus into any LLC scheme, measuring AMAT/CPI directly.
	Hierarchy = mem.Hierarchy
	// HierarchyConfig parameterizes the L1s and the bus.
	HierarchyConfig = mem.HierarchyConfig
	// CPULevel expands an LLC-level generator into a CPU-level byte stream.
	CPULevel = trace.CPULevel
)

// Experiment harness types.
type (
	// RunConfig controls one simulation run (geometry, warmup, timing).
	RunConfig = experiments.RunConfig
	// RunResult summarizes one (workload, scheme) simulation.
	RunResult = experiments.RunResult
	// Comparison is the full Figure 7/8/9 + Table 2 evaluation matrix.
	Comparison = experiments.Comparison
	// SweepConfig parameterizes a Figure 3/10 associativity sweep.
	SweepConfig = experiments.SweepConfig
	// Fig1Config parameterizes the Figure 1 demand characterization.
	Fig1Config = experiments.Fig1Config
	// Fig1Result carries Figure 1's per-period demand distributions.
	Fig1Result = experiments.Fig1Result
	// Fig2Row is one Figure 2 example's measured and analytical rates.
	Fig2Row = experiments.Fig2Row
)

// Replacement-policy kernel, exposed so custom caches can be assembled (see
// examples/custompolicy).
type (
	// Policy ranks the ways of one cache set for replacement.
	Policy = policy.Policy
	// PolicyKind names a replacement policy (LRU, BIP, ...).
	PolicyKind = policy.Kind
)

// Policy kinds.
const (
	LRU    = policy.LRU
	BIP    = policy.BIP
	NRU    = policy.NRU
	Random = policy.Random
)

// PaperGeometry is the evaluation's standard LLC: 2MB, 16-way, 64-byte
// lines (2048 sets), as in the paper's Table 1.
var PaperGeometry = experiments.PaperGeometry

// Schemes lists the six scheme names accepted by NewScheme, in the paper's
// presentation order.
func Schemes() []string { return append([]string(nil), experiments.SchemeNames...) }

// ExtensionSchemes lists additional schemes NewScheme accepts beyond the
// paper's evaluation: the RRIP family (SRRIP, DRRIP — ISCA 2010), included
// as the stronger temporal baseline for the extension experiment.
func ExtensionSchemes() []string {
	return append([]string(nil), experiments.ExtensionSchemeNames...)
}

// New constructs a STEM cache over the given geometry. Zero-value Config
// fields take the paper's Table 3 defaults.
func New(geom Geometry, cfg Config) Simulator { return core.New(geom, cfg) }

// NewScheme constructs any of the six evaluated schemes by name ("LRU",
// "DIP", "PELIFO", "VWAY", "SBC", "STEM").
func NewScheme(name string, geom Geometry, seed uint64) (Simulator, error) {
	return experiments.NewScheme(name, geom, seed)
}

// NewCustomCache builds a conventional set-associative cache whose per-set
// replacement policy is supplied by factory — the extension point for
// experimenting with new policies against the paper's workloads.
func NewCustomCache(name string, geom Geometry, seed uint64, factory func(set, ways int, rng *RNG) Policy) Simulator {
	return basecache.New(name, geom, seed, basecache.PolicyFactory(factory))
}

// NewPolicy constructs a built-in replacement policy over ways ways.
func NewPolicy(kind PolicyKind, ways int, rng *RNG) Policy {
	return policy.New(kind, ways, rng)
}

// NewGenerator instantiates a workload over a geometry.
func NewGenerator(w Workload, geom Geometry, seed uint64) Generator {
	return trace.NewGen(w, geom, seed)
}

// Benchmarks returns the 15-benchmark analog suite in the paper's order.
func Benchmarks() []Benchmark { return workloads.Suite() }

// BenchmarkByName returns one analog by its SPEC name.
func BenchmarkByName(name string) (Benchmark, error) { return workloads.ByName(name) }

// MustBenchmark is BenchmarkByName, panicking on unknown names; it is meant
// for examples and tests with static names.
func MustBenchmark(name string) Benchmark {
	b, err := workloads.ByName(name)
	if err != nil {
		panic(err)
	}
	return b
}

// Figure2Workload builds the paper's deterministic two-set Figure 2
// workload (examples 1-3).
func Figure2Workload(example int) Generator { return trace.Figure2(example) }

// Figure2Geometry is the toy LLC of Figure 2: two sets, four ways.
var Figure2Geometry = trace.Figure2Geometry

// DefaultTiming returns the paper's latency configuration (§5.1/Table 1).
func DefaultTiming() Timing { return mem.DefaultTiming() }

// NewAccount builds an AMAT/CPI accounting sink over the given timing.
func NewAccount(t Timing) *Account { return mem.NewAccount(t) }

// DemandProfiler is the §3.1 per-set capacity-demand profiler.
type DemandProfiler = profile.Demand

// PeriodDist is one sampling period's distribution of set-level demands.
type PeriodDist = profile.PeriodDist

// NewDemandProfiler builds the §3.1 per-set capacity-demand profiler;
// period is accesses per sampling period, maxWays the associativity horizon
// (the paper uses 50 000 and 32).
func NewDemandProfiler(geom Geometry, period, maxWays int) *DemandProfiler {
	return profile.NewDemand(geom, period, maxWays)
}

// Run drives a simulator over a generator with warmup and measurement.
func Run(s Simulator, gen Generator, cfg RunConfig) RunResult {
	return experiments.Run(s, gen, cfg)
}

// RunWorkload builds the named scheme plus the workload generator and runs
// them under cfg.
func RunWorkload(w Workload, scheme string, cfg RunConfig) (RunResult, error) {
	return experiments.RunWorkload(w, scheme, cfg)
}

// RunStream runs one reference stream — open starts a fresh pass over it —
// through each named scheme and returns the results in the schemes' order.
// The stream is drawn once per core in use, not once per scheme.
func RunStream(open func() Generator, schemes []string, cfg RunConfig) ([]RunResult, error) {
	return experiments.RunStream(open, schemes, cfg)
}

// Figure1 reproduces the paper's Figure 1 characterization for one analog.
func Figure1(cfg Fig1Config) (Fig1Result, error) { return experiments.Figure1(cfg) }

// Figure1Table renders Figure 1 results as a text table.
func Figure1Table(results ...Fig1Result) *Table { return experiments.Fig1Table(results...) }

// Figure2 replays the paper's Figure 2 examples on the real scheme
// implementations and returns measured vs analytical miss rates.
func Figure2(seed uint64) []Fig2Row { return experiments.Figure2(seed) }

// Sweep reproduces one panel of Figure 3 (baselines) or Figure 10 (with
// STEM): MPKI vs associativity.
func Sweep(cfg SweepConfig) (*Table, error) { return experiments.Sweep(cfg) }

// MainComparison runs the full 15-benchmark × 6-scheme evaluation and
// assembles Figures 7-9 plus Table 2.
func MainComparison(cfg RunConfig) (*Comparison, error) {
	return experiments.MainComparison(cfg)
}

// Table3 computes the paper's hardware storage-overhead analysis.
func Table3() OverheadReport { return experiments.Table3() }

// Overhead computes the storage analysis for an arbitrary configuration.
func Overhead(geom Geometry, cfg Config, addressBits int) OverheadReport {
	return core.Overhead(geom, cfg, addressBits)
}

// NewHierarchy wraps an LLC with the paper's Table 1 L1 caches and bus.
func NewHierarchy(l2 Simulator, cfg HierarchyConfig) *Hierarchy {
	return mem.NewHierarchy(l2, cfg)
}

// NewCPULevel expands an LLC-level generator into a CPU-level byte-address
// stream (repeats accesses per block) for use with NewHierarchy.
func NewCPULevel(gen Generator, lineSize, repeats int) *CPULevel {
	return trace.NewCPULevel(gen, lineSize, repeats)
}

// OPTMisses runs Belady's optimal replacement (an offline oracle) over a
// recorded block trace and returns its statistics — the lower bound no
// per-set policy can beat (spatial schemes can, by sharing capacity across
// sets; that gap is the paper's spatial headroom).
func OPTMisses(geom Geometry, blocks []uint64) Stats { return opt.Simulate(geom, blocks) }

// AblationVariant is one variant of the STEM design with an individual
// mechanism disabled or a parameter swept (extends the paper's §5.3).
type AblationVariant = experiments.AblationVariant

// ComponentVariants isolates STEM's mechanisms (full, spatial-only,
// temporal-only, SBC-style unconstrained receive).
func ComponentVariants() []AblationVariant { return experiments.ComponentVariants() }

// ParameterVariants sweeps one Table 3 hardware parameter ("k", "n", "m" or
// "heap").
func ParameterVariants(param string) ([]AblationVariant, error) {
	return experiments.ParameterVariants(param)
}

// Ablate runs STEM variants over the named analogs, returning MPKI
// normalized to LRU.
func Ablate(variants []AblationVariant, benchNames []string, run RunConfig) (*Table, error) {
	return experiments.Ablate(variants, benchNames, run)
}

// ExtensionComparison runs the suite through DIP, SRRIP, DRRIP and STEM —
// the "does set-level management still pay against the next temporal
// generation?" experiment the paper leaves open.
func ExtensionComparison(run RunConfig) (*Table, error) {
	return experiments.ExtensionComparison(run)
}

// ReplicationResult summarizes one scheme's normalized-MPKI geomean across
// independent seeds.
type ReplicationResult = experiments.ReplicationResult

// Replicate repeats the main comparison across seeds — the robustness check
// that the headline conclusion does not depend on the seed choice.
func Replicate(run RunConfig, seeds []uint64) ([]ReplicationResult, error) {
	return experiments.Replicate(run, seeds)
}

// ReplicationTable renders a replication study as min/median/max rows.
func ReplicationTable(results []ReplicationResult) *Table {
	return experiments.ReplicationTable(results)
}

// Trace file I/O (see internal/tracefile for the formats): record synthetic
// workloads or replay external traces.
type (
	// TraceWriter emits the native binary trace format.
	TraceWriter = tracefile.Writer
	// TraceReader iterates a native binary trace.
	TraceReader = tracefile.Reader
	// TraceHeader carries trace-wide metadata.
	TraceHeader = tracefile.Header
)

// CreateTrace opens a native trace file for writing (gzip when the name
// ends in ".gz").
func CreateTrace(path string, h TraceHeader) (*TraceWriter, error) {
	return tracefile.Create(path, h)
}

// OpenTrace opens a native trace file (transparently gunzipping).
func OpenTrace(path string) (*TraceReader, error) { return tracefile.Open(path) }

// RecordTrace captures n references from a generator into w.
func RecordTrace(w *TraceWriter, gen Generator, n int) error {
	return tracefile.Record(w, gen, n)
}

// ParseDin reads a Dinero-style text trace ("label hex-addr" lines).
func ParseDin(r io.Reader, lineSize int) ([]Ref, error) {
	return tracefile.ParseDin(r, lineSize)
}

// Observability layer (see internal/obs and the "Observability" section of
// README.md): a metrics registry servable over HTTP, a structured event
// trace for the STEM/SBC coupling mechanisms, and periodic run snapshots.
type (
	// Observer consumes mechanism events (couple, decouple, spill, receive,
	// policy swap, shadow hit, class change) emitted by STEM and SBC.
	Observer = obs.Observer
	// ObserverFunc adapts a plain function to the Observer interface.
	ObserverFunc = obs.ObserverFunc
	// Event is one structured trace record (JSONL on disk).
	Event = obs.Event
	// EventType names a mechanism event.
	EventType = obs.EventType
	// Snapshot is one periodic observation of a running simulation; the
	// final snapshot's Stats equal the run's sim.Stats exactly.
	Snapshot = obs.Snapshot
	// SchemeState is a live census of association roles and per-set
	// policies.
	SchemeState = obs.SchemeState
	// ObsOptions wires observability into RunConfig.Obs.
	ObsOptions = obs.Options
	// Registry is the typed metrics registry (counters, gauges,
	// log2-bucketed histograms); it implements http.Handler.
	Registry = obs.Registry
	// JSONLTracer streams events as JSON lines.
	JSONLTracer = obs.JSONLTracer
	// MetricsServer is a live HTTP endpoint for a Registry.
	MetricsServer = obs.Server
)

// Mechanism event types.
const (
	EvShadowHit   = obs.EvShadowHit
	EvPolicySwap  = obs.EvPolicySwap
	EvClassChange = obs.EvClassChange
	EvCouple      = obs.EvCouple
	EvDecouple    = obs.EvDecouple
	EvSpill       = obs.EvSpill
	EvReceive     = obs.EvReceive
	EvSnapshot    = obs.EvSnapshot
)

// NewRegistry builds an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// NewJSONLTracer wraps w in a buffered JSONL event sink; Close flushes it.
func NewJSONLTracer(w io.Writer) *JSONLTracer { return obs.NewJSONLTracer(w) }

// ReadEvents parses a JSONL event stream back into memory.
func ReadEvents(r io.Reader) ([]Event, error) { return obs.ReadEvents(r) }

// ServeMetrics exposes reg as JSON on addr (and /debug/pprof when withPprof
// is set); it returns the running server, whose Close stops it.
func ServeMetrics(addr string, reg *Registry, withPprof bool) (*MetricsServer, error) {
	return obs.Serve(addr, reg, withPprof)
}

// In-process cache library (see internal/stemcache): the paper's mechanism
// lifted out of the simulator into a concurrent, sharded, generic key-value
// cache. Each shard is lock-striped; each set inside a shard carries the
// SCDM (shadow signatures + SC_S/SC_T), duels LRU against BIP individually,
// and spills victims to a coupled giver set under the paper's receiving
// constraints. See the Example functions and the "stemcache" section of
// README.md.
type (
	// Cache is the concurrent, sharded, STEM-managed in-memory KV cache.
	Cache[K comparable, V any] = stemcache.Cache[K, V]
	// CacheConfig parameterizes a Cache (capacity, shards, ways, TTL, the
	// paper's Table 3 engine parameters, and observability sinks). The zero
	// value is usable.
	CacheConfig = stemcache.Config
	// CacheStats aggregates a Cache's counters; comparable with ==.
	CacheStats = stemcache.Stats
)

// NewCache builds a STEM-managed key-value cache for any comparable key
// type. String and integer keys hash deterministically from cfg.Seed; other
// key types use hash/maphash (deterministic within one process). It never
// panics: an invalid cfg (see CacheConfig.Validate) is reported as an error.
func NewCache[K comparable, V any](cfg CacheConfig) (*Cache[K, V], error) {
	return stemcache.New[K, V](cfg)
}

// NewCacheWithHasher builds a Cache whose 64-bit key hash is supplied by
// the caller; shard, set and shadow-signature selection all consume its
// bits, so it must spread keys uniformly. A nil hasher or an invalid cfg is
// reported as an error, never a panic.
func NewCacheWithHasher[K comparable, V any](cfg CacheConfig, hasher func(K) uint64) (*Cache[K, V], error) {
	return stemcache.NewWithHasher[K, V](cfg, hasher)
}

// NewShardedLRUCache builds the baseline the stemcache benchmarks compare
// against: the same sharded structure with both STEM mechanisms disabled —
// a plain lock-striped set-associative LRU cache. An invalid cfg is
// reported as an error, never a panic.
func NewShardedLRUCache[K comparable, V any](cfg CacheConfig) (*Cache[K, V], error) {
	return stemcache.NewShardedLRU[K, V](cfg)
}

// Read-through loading (see the "Read-through loading" section of README.md
// and DESIGN.md §13): Cache.GetOrLoad turns the passive KV cache into a
// read-through cache — on a miss it invokes a Loader exactly once per key no
// matter how many goroutines ask (singleflight), caches origin "not found"
// answers briefly (negative caching), spreads expirations with TTL jitter,
// and past the freshness deadline serves the stale value immediately while
// one background worker revalidates (stale-while-revalidate).
type (
	// Loader fetches the authoritative value for a key from the origin.
	// Returning ErrNotFound caches the absence (negative caching).
	Loader[K comparable, V any] = stemcache.Loader[K, V]
	// LoadState classifies what LookupLoad found for a key: LoadMiss,
	// LoadHit, LoadStale or LoadNegative.
	LoadState = stemcache.LoadState
)

// LoadState values.
const (
	LoadMiss     = stemcache.LoadMiss
	LoadHit      = stemcache.LoadHit
	LoadStale    = stemcache.LoadStale
	LoadNegative = stemcache.LoadNegative
)

// ErrNotFound is the sentinel a Loader returns for "the origin says this
// key does not exist"; GetOrLoad caches the absence for
// CacheConfig.NegativeTTL and returns ErrNotFound to every caller until it
// expires.
var ErrNotFound = stemcache.ErrNotFound

// ChainLoaders composes loaders into one fallback sequence: each is tried
// in order, any failure falls through to the next, and when every loader
// fails the last error is returned — the classic
// fast-tier-then-authoritative-origin lookup path as a single Loader. A
// cancelled context stops the fallback walk.
func ChainLoaders[K comparable, V any](loaders ...Loader[K, V]) Loader[K, V] {
	return stemcache.Chain(loaders...)
}
