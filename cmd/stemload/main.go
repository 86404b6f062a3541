// Command stemload is a load generator for stemd: N workers run a
// cache-aside loop (GET, on miss SET) against a server, drawing keys from
// one of the deterministic serving distributions in internal/workloads, and
// report throughput, client latency percentiles, and hit rates.
//
// Loop disciplines:
//
//   - Closed loop (default): each worker issues its next operation as soon
//     as the previous one completes. This measures service time under
//     self-limiting load, but hides queueing delay — when the server
//     stalls, the generator politely stops sending (coordinated omission).
//   - Open loop (-rate R): operations are scheduled by a Poisson arrival
//     process at R ops/s in aggregate, independent of completions, and
//     each operation's latency is measured from its *scheduled* send time.
//     A stalled server keeps accumulating scheduled arrivals, so the delay
//     its stall inflicted on every queued request lands in the histogram
//     instead of being silently omitted. Above saturation the open-loop
//     tail is therefore the honest one: expect p99(open) ≥ p99(closed).
//
// Latencies are recorded in mergeable log-linear histograms (~3% relative
// error), not sample arrays, so -ops can grow without memory growing.
//
// Target modes:
//
//   - With -addr, stemload drives an existing server and reports its
//     numbers.
//   - With -cluster, stemload drives a whole ring of servers (comma-separated
//     addresses, e.g. the set stemcluster prints) through the consistent-hash
//     routing client and reports aggregate plus per-node numbers. -seed and
//     -vnodes must match the cluster's.
//   - With -scenario NAME, stemload hosts its own servers and runs one of
//     the experiments in the scenario table (scenario.go): compare, latency,
//     herd, tenants, failover, scaleout. Each measures the numbers behind one
//     of the serving tiers' claims and states the claims themselves — name,
//     measured value, bound, holds — so the exit status of a scenario run is
//     "every claim holds".
//
// Every mode writes the same report envelope (-json): bench, scenario,
// config, result, claims.
//
// With -trace-every N, every N-th request carries a wire trace extension
// and the report includes the server/network latency split measured from
// the echoed server timings.
//
// Usage:
//
//	stemload -scenario compare            # self-hosted STEM vs LRU, mixed keys
//	stemload -scenario compare -dist scan -ops 500000
//	stemload -scenario latency -rate 200000   # closed vs open loop, one server
//	stemload -scenario herd -json -       # report on stdout
//	stemload -addr :7070 -conns 16
//	stemload -addr :7070 -rate 50000      # open loop at 50k ops/s
//	stemload -cluster 127.0.0.1:7070,127.0.0.1:7071,127.0.0.1:7072 -seed 21
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// wallClock is the package's single wall-clock read: stemload measures real
// elapsed time and latency.
var wallClock = time.Now //lint:allow(determinism) a load generator measures wall time by definition; nothing seed-deterministic reads this

func main() {
	var (
		addr      = flag.String("addr", "", "server to drive")
		clusterEP = flag.String("cluster", "", "comma-separated node addresses; drives the ring through the cluster routing client")
		scenario  = flag.String("scenario", "", "self-hosted experiment to run: "+strings.Join(scenarioNames(), ", "))
		vnodes    = flag.Int("vnodes", 0, "ring slots per node: with -cluster 0 = the cluster default; failover/scaleout default to 4")
		dist      = flag.String("dist", "mixed", "key distribution: zipf, scan, mixed, or hotspot-shift")
		ops       = flag.Int("ops", 400_000, "total operations per engine")
		conns     = flag.Int("conns", 4, "concurrent workers (one connection each)")
		capacity  = flag.Int("capacity", 1<<13, "cache capacity in entries (self-hosted servers; also scales the keyspace)")
		valueSize = flag.Int("value-size", 128, "value payload bytes")
		seed      = flag.Uint64("seed", 0x57E4, "key stream seed (worker w draws from seed+w)")
		rate      = flag.Float64("rate", 0, "open-loop Poisson arrival rate, total ops/s (0 = closed loop; the latency scenario then saturates)")
		traceEach = flag.Int("trace-every", 0, "trace every Nth request end to end (0 = off)")
		jsonPath  = flag.String("json", "", `write the report as JSON to this file ("-" for stdout)`)
	)
	flag.Parse()

	sc, err := selectScenario(*addr, *clusterEP, *scenario)
	if err == nil {
		err = run(sc, loadConfig{
			Dist: *dist, Ops: *ops, Conns: *conns, Capacity: *capacity,
			ValueSize: *valueSize, Seed: *seed, VNodes: *vnodes,
			Rate: *rate, TraceEvery: *traceEach,
		}, *jsonPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stemload:", err)
		os.Exit(1)
	}
}

// loadConfig is the flag set as a value: it shapes the cache-aside load and
// sizes every scenario.
type loadConfig struct {
	Dist      string `json:"dist"`
	Ops       int    `json:"ops"`
	Conns     int    `json:"conns"`
	Capacity  int    `json:"capacity"`
	ValueSize int    `json:"value_size"`
	Seed      uint64 `json:"seed"`
	// VNodes is ring slots per node (0 = the cluster default with -cluster,
	// memberVNodes in the failover and scaleout scenarios).
	VNodes int `json:"vnodes,omitempty"`
	// Rate > 0 selects the open loop: Poisson arrivals at Rate ops/s in
	// aggregate, latency measured from the scheduled send time.
	Rate float64 `json:"rate,omitempty"`
	// TraceEvery > 0 traces every Nth request end to end.
	TraceEvery int `json:"trace_every,omitempty"`
}

// result is one cache-aside load pass's measured outcome.
type result struct {
	Engine string `json:"engine"`
	// Mode is the loop discipline that produced the numbers: "closed" or
	// "open" (see the package comment for why their tails differ).
	Mode string `json:"mode"`
	// Ops is the number of GETs the pass executed (exactly -ops).
	Ops           int     `json:"ops"`
	Seconds       float64 `json:"seconds"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	LatP50Micros  float64 `json:"lat_p50_us"`
	LatP90Micros  float64 `json:"lat_p90_us"`
	LatP99Micros  float64 `json:"lat_p99_us"`
	LatP999Micros float64 `json:"lat_p999_us"`
	LatMeanMicros float64 `json:"lat_mean_us"`
	LatMaxMicros  float64 `json:"lat_max_us"`
	// TraceSamples and the p99 split appear when -trace-every sampled at
	// least one operation: ServerP99Micros is queue+handle on the server's
	// clock, NetP99Micros is everything else (wire, kernel, scheduling).
	TraceSamples    uint64  `json:"trace_samples,omitempty"`
	ServerP99Micros float64 `json:"server_p99_us,omitempty"`
	NetP99Micros    float64 `json:"net_p99_us,omitempty"`
	ClientHitRate   float64 `json:"client_hit_rate"`
	// ServerHitRate is the cache's own Gets-hit fraction from STATS — the
	// number the STEM-vs-LRU comparison is about.
	ServerHitRate float64 `json:"server_hit_rate"`
	// Server is the full server-side STATS document (cache mechanism
	// counters included), for trajectory archaeology.
	Server server.StatsSnapshot `json:"server,omitzero"`
	// Nodes holds every node's STATS document on -cluster runs (Server is
	// then the zero value; ServerHitRate aggregates across nodes).
	Nodes []server.StatsSnapshot `json:"nodes,omitempty"`
}

// report is the one JSON envelope every mode writes.
type report struct {
	Bench string `json:"bench"`
	// Scenario is the scenario table row that ran, or "addr" / "cluster" for
	// an external target.
	Scenario string     `json:"scenario"`
	Config   loadConfig `json:"config"`
	// Result is the scenario's own document (see each scenario's result
	// type); Claims are the inequalities it pins, evaluated on this run.
	Result any     `json:"result"`
	Claims []claim `json:"claims"`
}

// run executes one scenario, writes the report, and fails when a claim does
// not hold — which is what makes `stemload -scenario X` a check and not just
// a measurement.
func run(sc scenario, cfg loadConfig, jsonPath string) error {
	if cfg.Ops <= 0 || cfg.Conns <= 0 {
		return fmt.Errorf("need positive -ops and -conns")
	}
	res, claims, err := sc.run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", sc.name, err)
	}
	var broken []string
	for _, c := range claims {
		verdict := "holds"
		if !c.Holds {
			verdict = "FAILS"
			broken = append(broken, c.Name)
		}
		fmt.Printf("claim         %-40s %12.4f %s %-8g %s\n", c.Name, c.Measured, c.Op, c.Bound, verdict)
	}
	if jsonPath != "" {
		b, err := json.MarshalIndent(report{
			Bench: "stemload", Scenario: sc.name, Config: cfg, Result: res, Claims: claims,
		}, "", "  ")
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if jsonPath == "-" {
			_, err = os.Stdout.Write(b)
		} else {
			err = os.WriteFile(jsonPath, b, 0o644)
		}
		if err != nil {
			return err
		}
	}
	if len(broken) > 0 {
		return fmt.Errorf("%s: %d of %d claims do not hold: %s",
			sc.name, len(broken), len(claims), strings.Join(broken, ", "))
	}
	return nil
}

// printResult renders one engine's numbers, including the instantaneous
// set-role gauges (taker/giver/coupled) the STATS extension exports.
func printResult(r result, cfg loadConfig) {
	fmt.Printf("engine        %s  (%s loop)\n", r.Engine, r.Mode)
	fmt.Printf("ops           %d in %.2fs  (%.0f ops/s, %d workers, %s keys)\n",
		r.Ops, r.Seconds, r.OpsPerSec, cfg.Conns, cfg.Dist)
	fmt.Printf("latency       p50 %.1fus  p90 %.1fus  p99 %.1fus  p99.9 %.1fus  mean %.1fus  max %.1fus\n",
		r.LatP50Micros, r.LatP90Micros, r.LatP99Micros, r.LatP999Micros, r.LatMeanMicros, r.LatMaxMicros)
	if r.TraceSamples > 0 {
		fmt.Printf("trace split   %d samples  server p99 %.1fus  net p99 %.1fus\n",
			r.TraceSamples, r.ServerP99Micros, r.NetP99Micros)
	}
	fmt.Printf("hit rate      %.4f client  %.4f server\n", r.ClientHitRate, r.ServerHitRate)
	if c := r.Server.Cache; c.Spills > 0 || c.PolicySwaps > 0 {
		fmt.Printf("mechanisms    %d spills  %d policy swaps  %d shadow hits\n",
			c.Spills, c.PolicySwaps, c.ShadowHits)
	}
	if len(r.Nodes) == 0 {
		if c := r.Server.Cache; c.Gets > 0 {
			fmt.Printf("set roles     %d taker  %d giver  %d coupled\n",
				c.TakerSets, c.GiverSets, c.CoupledSets)
		}
	}
	for _, n := range r.Nodes {
		fmt.Printf("node %-3d      %.4f hit  %d/%d entries  %d taker  %d giver  %d coupled sets\n",
			n.NodeID, n.HitRate, n.Len, n.Capacity,
			n.Cache.TakerSets, n.Cache.GiverSets, n.Cache.CoupledSets)
	}
	fmt.Println()
}

// kvStore is the client surface the worker loop needs — satisfied by both
// the single-node client and the cluster routing client.
type kvStore interface {
	Get(key string) (value []byte, found bool, err error)
	Set(key string, value []byte) error
}

// passOutcome is one load pass's merged measurement.
type passOutcome struct {
	hist    *obs.LatencyHistogram // GET latency, microseconds
	hits    int
	gets    int
	seconds float64
}

// runWorkers drives the cache-aside loop (GET, on miss SET) with cfg.Conns
// workers — closed loop, or open loop when cfg.Rate > 0 — and returns the
// merged outcome. Latency is per GET, in microseconds: completion minus
// issue time (closed) or completion minus *scheduled* arrival time (open),
// which is what makes the open loop coordinated-omission-safe.
func runWorkers(cl kvStore, cfg loadConfig) (passOutcome, error) {
	value := missValue(cfg.ValueSize)
	// Exactly cfg.Ops GETs run: the first Ops%Conns workers take one extra.
	perWorker, extra := cfg.Ops/cfg.Conns, cfg.Ops%cfg.Conns
	// Per-worker Poisson thinning: the aggregate rate splits evenly, and
	// each worker draws its own exponential inter-arrival gaps from its own
	// seeded stream, so a run is reproducible for a fixed seed.
	perRate := cfg.Rate / float64(cfg.Conns)
	type workerOut struct {
		hist obs.LatencyHistogram
		hits int
		gets int
		err  error
	}
	outs := make([]workerOut, cfg.Conns)
	var wg sync.WaitGroup
	start := wallClock()
	for w := 0; w < cfg.Conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := &outs[w]
			next, err := workloads.NewWorkerKeyStream(cfg.Dist, cfg.Capacity, cfg.Seed+uint64(w), w, cfg.Conns)
			if err != nil {
				out.err = err
				return
			}
			var rng *sim.RNG
			var sched time.Duration // scheduled offset of the next arrival
			if perRate > 0 {
				rng = sim.NewRNG(cfg.Seed + uint64(w))
			}
			n := perWorker
			if w < extra {
				n++
			}
			for i := 0; i < n; i++ {
				k := next()
				issue := wallClock()
				if rng != nil {
					// Exponential inter-arrival gap: -ln(1-U)/λ. U < 1
					// always (Float64 is [0,1)), so the log is finite.
					gap := -math.Log(1-rng.Float64()) / perRate
					sched += time.Duration(gap * float64(time.Second))
					target := start.Add(sched)
					if d := target.Sub(issue); d > 0 {
						time.Sleep(d)
					}
					// Measure from the schedule, never from the (possibly
					// late) actual send: a backed-up worker charges its
					// backlog to the server, not to the omitted samples.
					issue = target
				}
				_, found, err := cl.Get(k)
				if lat := wallClock().Sub(issue).Microseconds(); lat > 0 {
					out.hist.Observe(uint64(lat))
				} else {
					out.hist.Observe(0)
				}
				out.gets++
				if err != nil {
					out.err = err
					return
				}
				if found {
					out.hits++
				} else if err := cl.Set(k, value); err != nil {
					out.err = err
					return
				}
			}
		}(w)
	}
	wg.Wait()

	pass := passOutcome{hist: &obs.LatencyHistogram{}, seconds: wallClock().Sub(start).Seconds()}
	for w := range outs {
		if outs[w].err != nil {
			return passOutcome{}, outs[w].err
		}
		pass.hist.Merge(&outs[w].hist)
		pass.hits += outs[w].hits
		pass.gets += outs[w].gets
	}
	return pass, nil
}

// buildResult folds one pass's outcome into the common result fields.
func buildResult(engine string, pass passOutcome, cfg loadConfig) result {
	mode := "closed"
	if cfg.Rate > 0 {
		mode = "open"
	}
	h := pass.hist
	return result{
		Engine:        engine,
		Mode:          mode,
		Ops:           pass.gets,
		Seconds:       pass.seconds,
		OpsPerSec:     float64(pass.gets) / pass.seconds,
		LatP50Micros:  float64(h.Quantile(0.50)),
		LatP90Micros:  float64(h.Quantile(0.90)),
		LatP99Micros:  float64(h.Quantile(0.99)),
		LatP999Micros: float64(h.Quantile(0.999)),
		LatMeanMicros: h.Mean(),
		LatMaxMicros:  float64(h.Max()),
		ClientHitRate: float64(pass.hits) / float64(max(pass.gets, 1)),
	}
}

// drive runs the workers against addr and gathers the result.
func drive(engine, addr string, cfg loadConfig) (result, error) {
	ccfg := client.Config{Addr: addr, PoolSize: cfg.Conns}
	var treg *obs.Registry
	if cfg.TraceEvery > 0 {
		treg = obs.NewRegistry()
		ccfg.TraceEvery = cfg.TraceEvery
		ccfg.Metrics = treg
	}
	cl, err := client.New(ccfg)
	if err != nil {
		return result{}, err
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		return result{}, fmt.Errorf("server unreachable at %s: %w", addr, err)
	}

	pass, err := runWorkers(cl, cfg)
	if err != nil {
		return result{}, err
	}

	snap, err := serverStats(cl)
	if err != nil {
		return result{}, err
	}
	res := buildResult(engine, pass, cfg)
	res.ServerHitRate = snap.HitRate
	res.Server = snap
	attachTraceSplit(&res, treg)
	return res, nil
}

// serverStats fetches and decodes a server's STATS document.
func serverStats(cl *client.Client) (server.StatsSnapshot, error) {
	var snap server.StatsSnapshot
	raw, err := cl.Stats()
	if err != nil {
		return snap, err
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		return snap, fmt.Errorf("STATS payload: %w", err)
	}
	return snap, nil
}

// missValue is the n-byte value a cache-aside miss writes.
func missValue(n int) []byte {
	value := make([]byte, n)
	for i := range value {
		value[i] = byte('a' + i%26)
	}
	return value
}

// attachTraceSplit copies the traced server/network p99 split out of the
// client's registry into the result, when tracing was on and sampled
// anything.
func attachTraceSplit(res *result, treg *obs.Registry) {
	if treg == nil {
		return
	}
	srvH := treg.Latency("client.lat.server_us")
	if srvH.Count() == 0 {
		return
	}
	res.TraceSamples = srvH.Count()
	res.ServerP99Micros = float64(srvH.Quantile(0.99))
	res.NetP99Micros = float64(treg.Latency("client.lat.net_us").Quantile(0.99))
}

// driveCluster runs the closed-loop workers through the consistent-hash
// routing client and aggregates every node's STATS.
func driveCluster(addrs []string, cfg loadConfig) (result, error) {
	nodeCfg := client.Config{PoolSize: cfg.Conns}
	var treg *obs.Registry
	if cfg.TraceEvery > 0 {
		// One registry shared by every node's client: the client.lat.*
		// histograms are atomic and mergeable, so per-node samples simply
		// aggregate into the cluster-wide split.
		treg = obs.NewRegistry()
		nodeCfg.TraceEvery = cfg.TraceEvery
		nodeCfg.Metrics = treg
	}
	cl, err := cluster.NewClient(cluster.Config{
		Addrs:  addrs,
		VNodes: cfg.VNodes,
		Seed:   cfg.Seed,
		Client: nodeCfg,
	})
	if err != nil {
		return result{}, err
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		return result{}, fmt.Errorf("cluster unreachable: %w", err)
	}

	pass, err := runWorkers(cl, cfg)
	if err != nil {
		return result{}, err
	}

	raws, err := cl.StatsAll()
	if err != nil {
		return result{}, err
	}
	res := buildResult("cluster", pass, cfg)
	var srvHits, srvGets uint64
	res.Nodes = make([]server.StatsSnapshot, len(raws))
	for i, raw := range raws {
		if err := json.Unmarshal(raw, &res.Nodes[i]); err != nil {
			return result{}, fmt.Errorf("node %d STATS payload: %w", i, err)
		}
		srvHits += res.Nodes[i].Cache.Hits
		srvGets += res.Nodes[i].Cache.Gets
	}
	if srvGets > 0 {
		res.ServerHitRate = float64(srvHits) / float64(srvGets)
	}
	attachTraceSplit(&res, treg)
	return res, nil
}
