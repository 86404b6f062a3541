// Command stemload is a load generator for stemd: N workers run a
// cache-aside loop (GET, on miss SET) against a running server or cluster
// of servers, drawing keys from one of the deterministic serving distributions
// in internal/workloads, and report throughput, client latency percentiles,
// and hit rates.
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
// Target modes (exactly one):
//
//   - With -addr, stemload drives one server and reports its numbers plus
//     the server's STATS document.
//   - With -cluster, stemload drives a whole cluster of servers through the
//     routing client and reports aggregate plus per-node numbers. The
//     comma-separated addresses are a seed list (e.g. the set stemcluster
//     prints, or any one of them): the client fetches the cluster's view
//     from the first that answers, and every member, the slot count, and
//     the nodes that join or die later reach it in views. -seed must match
//     the cluster's. A node the view marks dead or left is reported down.
//
// With -trace-every N, every N-th request carries a wire trace extension
// and the report includes the server/network latency split measured from
// the echoed server timings. -json writes the report envelope: bench,
// target, config, result.
//
// Usage:
//
//	stemload -addr :7070 -conns 16
//	stemload -addr :7070 -rate 50000      # open loop at 50k ops/s
//	stemload -addr :7070 -json -          # report on stdout
//	stemload -cluster 127.0.0.1:7070,127.0.0.1:7071,127.0.0.1:7072 -seed 21
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
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
	if err := stemload(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "stemload:", err)
		os.Exit(1)
	}
}

// stemload runs one invocation: it checks every flag before dialling
// anything, drives the one target, prints the result to stdout and writes
// the -json report.
func stemload(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("stemload", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "", "server to drive")
		clusterEP = fs.String("cluster", "", "comma-separated addresses of any cluster members; drives the cluster through its routing client")
		dist      = fs.String("dist", "mixed", "key distribution: zipf, scan, mixed, or hotspot-shift")
		ops       = fs.Int("ops", 400_000, "total GETs")
		conns     = fs.Int("conns", 4, "concurrent workers (one connection each)")
		capacity  = fs.Int("capacity", 1<<13, "the target's cache capacity in entries (scales the keyspace)")
		valueSize = fs.Int("value-size", 128, "value payload bytes")
		seed      = fs.Uint64("seed", 0x57E4, "key stream seed (worker w draws from seed+w)")
		rate      = fs.Float64("rate", 0, "open-loop Poisson arrival rate, total ops/s (0 = closed loop)")
		traceEach = fs.Int("trace-every", 0, "trace every Nth request end to end (0 = off)")
		jsonPath  = fs.String("json", "", `write the report as JSON to this file ("-" for stdout)`)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	cfg := loadConfig{
		Dist: *dist, Ops: *ops, Conns: *conns, Capacity: *capacity,
		ValueSize: *valueSize, Seed: *seed,
		Rate: *rate, TraceEvery: *traceEach,
	}
	if err := cfg.validate(); err != nil {
		return err
	}
	if (*addr == "") == (*clusterEP == "") {
		return errors.New("need exactly one of -addr and -cluster")
	}

	rep := report{Bench: "stemload", Config: cfg}
	var err error
	if *addr != "" {
		rep.Target = "addr"
		rep.Result, err = drive(*addr, cfg)
	} else {
		rep.Target = "cluster"
		rep.Result, err = driveCluster(strings.Split(*clusterEP, ","), cfg)
	}
	if err != nil {
		return err
	}
	printResult(stdout, rep.Target, rep.Result, cfg)
	if *jsonPath == "" {
		return nil
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if *jsonPath == "-" {
		_, err = stdout.Write(b)
		return err
	}
	return os.WriteFile(*jsonPath, b, 0o644)
}

// loadConfig is the flag set as a value: it shapes the cache-aside load.
type loadConfig struct {
	Dist      string `json:"dist"`
	Ops       int    `json:"ops"`
	Conns     int    `json:"conns"`
	Capacity  int    `json:"capacity"`
	ValueSize int    `json:"value_size"`
	Seed      uint64 `json:"seed"`
	// Rate > 0 selects the open loop: Poisson arrivals at Rate ops/s in
	// aggregate, latency measured from the scheduled send time.
	Rate float64 `json:"rate,omitempty"`
	// TraceEvery > 0 traces every Nth request end to end.
	TraceEvery int `json:"trace_every,omitempty"`
}

// validate rejects a configuration the load loop cannot honour, so a bad
// flag is an error before any dial rather than a panic or a silently
// different run.
func (c loadConfig) validate() error {
	switch {
	case c.Ops <= 0 || c.Conns <= 0:
		return fmt.Errorf("need positive -ops and -conns, got %d and %d", c.Ops, c.Conns)
	case c.ValueSize < 0:
		return fmt.Errorf("-value-size %d is negative", c.ValueSize)
	case !(c.Rate >= 0) || math.IsInf(c.Rate, 1):
		return fmt.Errorf("-rate %v is not a finite rate >= 0", c.Rate)
	case c.TraceEvery < 0:
		return fmt.Errorf("-trace-every %d is negative", c.TraceEvery)
	}
	// The key stream checks -dist and -capacity.
	_, err := workloads.NewKeyStream(c.Dist, c.Capacity, c.Seed)
	return err
}

// result is one cache-aside load pass's measured outcome.
type result struct {
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
	// ServerHitRate is the cache's own Gets-hit fraction from STATS
	// (aggregated across nodes on -cluster runs).
	ServerHitRate float64 `json:"server_hit_rate"`
	// Server is the full server-side STATS document (cache mechanism
	// counters included), for trajectory archaeology.
	Server server.StatsSnapshot `json:"server,omitzero"`
	// Nodes holds every node's STATS document on -cluster runs (Server is
	// then the zero value); a node the cluster's view marks dead or left
	// is null.
	Nodes []*server.StatsSnapshot `json:"nodes,omitempty"`
}

// report is the JSON envelope -json writes.
type report struct {
	Bench string `json:"bench"`
	// Target is the mode that ran: "addr" or "cluster".
	Target string     `json:"target"`
	Config loadConfig `json:"config"`
	Result result     `json:"result"`
}

// printResult renders one pass's numbers, including the instantaneous
// set-role gauges (taker/giver/coupled) the STATS extension exports.
func printResult(w io.Writer, target string, r result, cfg loadConfig) {
	fmt.Fprintf(w, "target        %s  (%s loop)\n", target, r.Mode)
	fmt.Fprintf(w, "ops           %d in %.2fs  (%.0f ops/s, %d workers, %s keys)\n",
		r.Ops, r.Seconds, r.OpsPerSec, cfg.Conns, cfg.Dist)
	fmt.Fprintf(w, "latency       p50 %.1fus  p90 %.1fus  p99 %.1fus  p99.9 %.1fus  mean %.1fus  max %.1fus\n",
		r.LatP50Micros, r.LatP90Micros, r.LatP99Micros, r.LatP999Micros, r.LatMeanMicros, r.LatMaxMicros)
	if r.TraceSamples > 0 {
		fmt.Fprintf(w, "trace split   %d samples  server p99 %.1fus  net p99 %.1fus\n",
			r.TraceSamples, r.ServerP99Micros, r.NetP99Micros)
	}
	fmt.Fprintf(w, "hit rate      %.4f client  %.4f server\n", r.ClientHitRate, r.ServerHitRate)
	if c := r.Server.Cache; c.Spills > 0 || c.PolicySwaps > 0 {
		fmt.Fprintf(w, "mechanisms    %d spills  %d policy swaps  %d shadow hits\n",
			c.Spills, c.PolicySwaps, c.ShadowHits)
	}
	if c := r.Server.Cache; c.Gets > 0 {
		fmt.Fprintf(w, "set roles     %d taker  %d giver  %d coupled\n",
			c.TakerSets, c.GiverSets, c.CoupledSets)
	}
	for i, n := range r.Nodes {
		if n == nil {
			fmt.Fprintf(w, "node %-3d      down\n", i)
			continue
		}
		fmt.Fprintf(w, "node %-3d      %.4f hit  %d/%d entries  %d taker  %d giver  %d coupled sets\n",
			n.NodeID, n.HitRate, n.Len, n.Capacity,
			n.Cache.TakerSets, n.Cache.GiverSets, n.Cache.CoupledSets)
	}
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
	value := make([]byte, cfg.ValueSize) // what a cache-aside miss writes
	for i := range value {
		value[i] = byte('a' + i%26)
	}
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
func buildResult(pass passOutcome, cfg loadConfig) result {
	mode := "closed"
	if cfg.Rate > 0 {
		mode = "open"
	}
	h := pass.hist
	return result{
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

// clientConfig is the per-node connection template: one pooled connection
// per worker and, with -trace-every, the registry the client.lat.* split
// histograms land in. A ring's node clients share that registry; the
// histograms are atomic and mergeable, so per-node samples aggregate into
// the cluster-wide split.
func clientConfig(cfg loadConfig) (client.Config, *obs.Registry) {
	ccfg := client.Config{PoolSize: cfg.Conns}
	if cfg.TraceEvery == 0 {
		return ccfg, nil
	}
	treg := obs.NewRegistry()
	ccfg.TraceEvery, ccfg.Metrics = cfg.TraceEvery, treg
	return ccfg, treg
}

// drive runs the workers against addr and gathers the result.
func drive(addr string, cfg loadConfig) (result, error) {
	ccfg, treg := clientConfig(cfg)
	ccfg.Addr = addr
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
	raw, err := cl.Stats()
	if err != nil {
		return result{}, err
	}
	res := buildResult(pass, cfg)
	if err := json.Unmarshal(raw, &res.Server); err != nil {
		return result{}, fmt.Errorf("STATS payload: %w", err)
	}
	res.ServerHitRate = res.Server.HitRate
	attachTraceSplit(&res, treg)
	return res, nil
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

// driveCluster runs the workers through the routing client, seeded with
// addrs, and aggregates every node's STATS.
func driveCluster(addrs []string, cfg loadConfig) (result, error) {
	ccfg, treg := clientConfig(cfg)
	cl, err := cluster.NewClient(cluster.Config{
		Addrs:  addrs,
		Seed:   cfg.Seed,
		Client: ccfg,
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
	res := buildResult(pass, cfg)
	var srvHits, srvGets uint64
	res.Nodes = make([]*server.StatsSnapshot, len(raws))
	for i, raw := range raws {
		if raw == nil {
			continue // down: the view marks it dead or left
		}
		res.Nodes[i] = new(server.StatsSnapshot)
		if err := json.Unmarshal(raw, res.Nodes[i]); err != nil {
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
