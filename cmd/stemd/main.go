// Command stemd serves a stemcache over TCP: the STEM paper's capacity
// manager (set-level LRU/BIP dueling plus taker→giver spilling) as the
// eviction engine of a networked key-value cache, speaking the internal/wire
// protocol.
//
// Usage:
//
//	stemd -addr :7070 -capacity 1048576
//	stemd -addr :7070 -shards 32 -ways 16 -default-ttl 5m
//	stemd -addr :7070 -lru                # sharded-LRU baseline, same geometry
//	stemd -addr :7070 -metrics :6060 -pprof -trace events.jsonl
//	stemd -addr :0 -addr-file addr.txt -trace ev.jsonl -slow-request 2ms
//
// stemd runs until SIGINT/SIGTERM, then drains gracefully: in-flight
// requests finish and their responses are flushed before connections close.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/stemcache"
)

func main() {
	var (
		addr       = flag.String("addr", ":7070", `listen address ("host:port"; ":0" picks a free port)`)
		capacity   = flag.Int("capacity", 1<<16, "cache capacity in entries (rounded to shards x sets x ways)")
		shards     = flag.Int("shards", 0, "shard count (0 = default 16; rounded to a power of two)")
		ways       = flag.Int("ways", 0, "set associativity (0 = default 16)")
		seed       = flag.Uint64("seed", 0x57E4, "seed for the cache's probabilistic devices")
		defaultTTL = flag.Duration("default-ttl", 0, "TTL applied by SET (0 = never expire; SETTTL overrides per key); with a TTL, an insert reuses an expired entry's way before evicting a live one")
		lru        = flag.Bool("lru", false, "serve the sharded-LRU baseline instead of STEM (same geometry)")

		maxConns     = flag.Int("max-conns", 0, "max concurrently served connections (0 = default 1024)")
		readTimeout  = flag.Duration("read-timeout", 0, "per-frame read deadline (0 = default 10s)")
		writeTimeout = flag.Duration("write-timeout", 0, "per-flush write deadline (0 = default 10s)")
		idleTimeout  = flag.Duration("idle-timeout", 0, "idle connection close (0 = default 5m, negative = off)")
		drainTimeout = flag.Duration("drain-timeout", 0, "graceful shutdown grace (0 = default 5s)")

		slowReq  = flag.Duration("slow-request", 0, "with -trace: emit a slow_request event for requests whose decode+handle exceeds this (0 = off)")
		addrFile = flag.String("addr-file", "", "write the bound listen address to this file once serving (for scripts using :0)")
	)
	toolCfg := obs.ToolFlags(flag.CommandLine, "stemd", obs.ToolFlagSet{
		Pprof: true, Trace: true, TraceHelp: `write mechanism events as JSONL to this file ("-" for stdout)`,
	})
	flag.Parse()

	if err := run(runConfig{
		addr: *addr, capacity: *capacity, shards: *shards, ways: *ways,
		seed: *seed, defaultTTL: *defaultTTL, lru: *lru,
		maxConns: *maxConns, readTimeout: *readTimeout, writeTimeout: *writeTimeout,
		idleTimeout: *idleTimeout, drainTimeout: *drainTimeout,
		tool: *toolCfg, slowRequest: *slowReq, addrFile: *addrFile,
	}, nil); err != nil {
		fmt.Fprintln(os.Stderr, "stemd:", err)
		os.Exit(1)
	}
}

// runConfig is main's flag set as a value, so run is testable.
type runConfig struct {
	addr       string
	capacity   int
	shards     int
	ways       int
	seed       uint64
	defaultTTL time.Duration
	lru        bool

	maxConns     int
	readTimeout  time.Duration
	writeTimeout time.Duration
	idleTimeout  time.Duration
	drainTimeout time.Duration

	tool        obs.ToolConfig // -metrics, -pprof, -trace
	slowRequest time.Duration
	addrFile    string
}

// run builds the cache and server, then blocks until a termination signal
// (or stop closing, for tests) and drains.
func run(cfg runConfig, stop <-chan struct{}) error {
	tool, err := obs.StartTool(cfg.tool)
	if err != nil {
		return err
	}
	defer tool.Close()

	ccfg := stemcache.Config{
		Capacity:   cfg.capacity,
		Shards:     cfg.shards,
		Ways:       cfg.ways,
		Seed:       cfg.seed,
		DefaultTTL: cfg.defaultTTL,
	}
	scfg := server.Config{
		MaxConns:     cfg.maxConns,
		ReadTimeout:  cfg.readTimeout,
		WriteTimeout: cfg.writeTimeout,
		IdleTimeout:  cfg.idleTimeout,
		DrainTimeout: cfg.drainTimeout,
		SlowRequest:  cfg.slowRequest,
	}
	if cfg.lru {
		ccfg = ccfg.ShardedLRU()
	}
	if opts := tool.Options(); opts != nil {
		ccfg.Metrics, scfg.Metrics = opts.Registry, opts.Registry
		// Slow-request events go to the same JSONL stream as the mechanism
		// events, so stemtrace can window one against the other.
		ccfg.Observer, scfg.Events = opts.Tracer, opts.Tracer
	}
	node, err := cluster.StartNode(0, cluster.NodeConfig{Cache: ccfg, Server: scfg, Addr: cfg.addr})
	if err != nil {
		return err
	}
	defer node.Close() // idempotent: the drain below is the close that reports
	if cfg.addrFile != "" {
		// Written after the bind, so a script that waits for the file to
		// appear can connect immediately.
		if err := os.WriteFile(cfg.addrFile, []byte(node.Addr()+"\n"), 0o644); err != nil {
			return err
		}
	}

	engine := "STEM"
	if cfg.lru {
		engine = "sharded-LRU baseline"
	}
	fmt.Fprintf(os.Stderr, "stemd: serving %s cache (%d entries) on %s\n",
		engine, node.Cache().Capacity(), node.Addr())

	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigC)
	select {
	case sig := <-sigC:
		fmt.Fprintf(os.Stderr, "stemd: %v; draining\n", sig)
	case <-stop:
	}
	return node.Close()
}
