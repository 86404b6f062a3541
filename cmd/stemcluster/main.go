// Command stemcluster supervises an in-process STEM cluster: it starts N
// cache nodes (each a stemd-style server over its own STEM-managed cache),
// prints their addresses for clients like `stemload -cluster`, and drives
// the cluster's one control plane, a membership.Manager, from two tickers.
// Every -heartbeat the manager probes each member (failure detection and
// failover); every -epoch it runs a demand round: it polls each member's
// capacity-demand snapshot (the aggregate of its sets' SCDM monitors) and
// moves a bounded number of ring slots from saturated members to
// under-utilized ones. The manager is the only writer of ring ownership, so
// every move — demand round, join, failover — re-places replicas and
// pushes a new view to the nodes' agents (synchronous replica write
// fan-out plus read-repair). -join-after and -kill-after/-kill-node script
// lifecycle events for experiments.
//
// Usage:
//
//	stemcluster -nodes 3 -capacity 8192 -seed 21
//	stemcluster -nodes 3 -addr-file /tmp/addrs -epoch 500ms -max-moves 2
//	stemcluster -nodes 3 -static              # consistent hashing only, no demand rounds
//	stemcluster -metrics :6060 -trace events.jsonl
//	stemcluster -nodes 3 -replication 2 -heartbeat 250ms -suspect 3
//	stemcluster -nodes 3 -replication 2 -kill-after 10s -kill-node 1
//	stemcluster -nodes 3 -replication 2 -join-after 10s
//
// Drive it with the load generator, matching -seed (and -vnodes if set):
//
//	stemload -cluster "$(cat /tmp/addrs)" -seed 21 -dist hotspot-shift
//
// stemcluster runs until SIGINT/SIGTERM, then closes every node.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/membership"
	"repro/internal/obs"
	"repro/internal/stemcache"
)

func main() {
	var cfg runConfig
	flag.IntVar(&cfg.nodes, "nodes", 3, "cluster node count")
	flag.IntVar(&cfg.capacity, "capacity", 1<<13, "per-node cache capacity in entries")
	flag.IntVar(&cfg.shards, "shards", 0, "per-node shard count (0 = default)")
	flag.IntVar(&cfg.ways, "ways", 0, "per-node set associativity (0 = default)")
	flag.IntVar(&cfg.vnodes, "vnodes", 0, "ring slots per node (0 = the cluster default)")
	flag.Uint64Var(&cfg.seed, "seed", 0x57E4, "cluster seed: ring placement and per-node cache seeds")

	flag.DurationVar(&cfg.epoch, "epoch", time.Second, "demand round (rebalancing) interval")
	flag.IntVar(&cfg.maxMoves, "max-moves", 0, "slot moves allowed per demand round (0 = default 2)")
	flag.Float64Var(&cfg.takerFrac, "taker-frac", 0, "demand score at or above which a node is a taker (0 = default)")
	flag.Float64Var(&cfg.giverFrac, "giver-frac", 0, "demand score at or below which a node is a giver (0 = default)")
	flag.BoolVar(&cfg.static, "static", false, "serve the static consistent-hash ring: no demand rounds")

	flag.IntVar(&cfg.replication, "replication", 1, "copies per slot including the owner (1 = owner only)")
	flag.DurationVar(&cfg.heartbeat, "heartbeat", 500*time.Millisecond, "failure-detector heartbeat interval")
	flag.IntVar(&cfg.suspect, "suspect", 0, "consecutive missed heartbeats before a node is declared dead (0 = default)")
	flag.DurationVar(&cfg.joinAfter, "join-after", 0, "start and join one more node after this delay (0 = never)")
	flag.DurationVar(&cfg.killAfter, "kill-after", 0, "close -kill-node after this delay, leaving failover to the detector (0 = never)")
	flag.IntVar(&cfg.killNode, "kill-node", 1, "with -kill-after: the node to kill")

	flag.StringVar(&cfg.addrFile, "addr-file", "", "write the comma-separated node addresses to this file")
	toolCfg := obs.ToolFlags(flag.CommandLine, "stemcluster", obs.ToolFlagSet{
		Trace: true, TraceHelp: `write the manager's demand, migration, lifecycle and replica events as JSONL to this file ("-" for stdout)`,
	})
	flag.Parse()
	cfg.tool = *toolCfg

	if err := run(cfg, nil); err != nil {
		fmt.Fprintln(os.Stderr, "stemcluster:", err)
		os.Exit(1)
	}
}

// runConfig is main's flag set as a value, so run is testable.
type runConfig struct {
	nodes    int
	capacity int
	shards   int
	ways     int
	vnodes   int
	seed     uint64

	epoch     time.Duration
	maxMoves  int
	takerFrac float64
	giverFrac float64
	static    bool

	replication int
	heartbeat   time.Duration
	suspect     int
	joinAfter   time.Duration
	killAfter   time.Duration
	killNode    int

	addrFile string
	tool     obs.ToolConfig // -metrics, -trace
}

// run starts the nodes and the supervisor loop, then blocks until a
// termination signal (or stop closing, for tests).
func run(cfg runConfig, stop <-chan struct{}) error {
	switch {
	case cfg.nodes <= 0:
		return fmt.Errorf("need a positive -nodes")
	case cfg.epoch <= 0:
		return fmt.Errorf("need a positive -epoch")
	case cfg.heartbeat <= 0:
		return fmt.Errorf("need a positive -heartbeat")
	case cfg.replication < 1:
		return fmt.Errorf("need -replication of at least 1")
	case cfg.killAfter > 0 && (cfg.killNode < 0 || cfg.killNode >= cfg.nodes):
		return fmt.Errorf("-kill-node %d out of range [0, %d)", cfg.killNode, cfg.nodes)
	}
	tool, err := obs.StartTool(cfg.tool)
	if err != nil {
		return err
	}
	defer tool.Close()
	var reg *obs.Registry
	var tracer obs.Observer
	if opts := tool.Options(); opts != nil {
		reg = opts.Registry
		tracer = opts.Tracer
	}

	rig, err := membership.StartRig(cfg.nodes,
		cluster.NodeConfig{Cache: stemcache.Config{Capacity: cfg.capacity, Shards: cfg.shards, Ways: cfg.ways}},
		cluster.Config{VNodes: cfg.vnodes, Seed: cfg.seed, Metrics: reg})
	if err != nil {
		return err
	}
	defer rig.Close()
	if err := rig.Bootstrap(membership.Config{
		ReplicationFactor: cfg.replication,
		SuspectAfter:      cfg.suspect,
		MaxMovesPerEpoch:  cfg.maxMoves,
		TakerFrac:         cfg.takerFrac,
		GiverFrac:         cfg.giverFrac,
		Metrics:           reg,
		Observer:          tracer,
	}); err != nil {
		return err
	}
	mgr := rig.Manager()

	joined := strings.Join(rig.Addrs(), ",")
	if cfg.addrFile != "" {
		if err := os.WriteFile(cfg.addrFile, []byte(joined+"\n"), 0o644); err != nil {
			return err
		}
	}
	mode := "demand rounds every " + cfg.epoch.String()
	if cfg.static {
		mode = "static ring"
	}
	fmt.Fprintf(os.Stderr, "stemcluster: %d nodes (%s), %d entries each, %s, rf=%d heartbeat=%s\n",
		cfg.nodes, joined, rig.Node(0).Cache().Capacity(), mode, cfg.replication, cfg.heartbeat)

	// The supervisor loop: one goroutine drives the manager — heartbeats
	// (failover), demand rounds, and the scripted join/kill events — so no
	// two ownership changes race.
	beat := time.NewTicker(cfg.heartbeat)
	defer beat.Stop()
	var epochC, joinC, killC <-chan time.Time
	if !cfg.static {
		ticker := time.NewTicker(cfg.epoch)
		defer ticker.Stop()
		epochC = ticker.C
	}
	if cfg.joinAfter > 0 {
		joinC = time.After(cfg.joinAfter)
	}
	if cfg.killAfter > 0 {
		killC = time.After(cfg.killAfter)
	}
	done := make(chan struct{})
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		for {
			select {
			case <-done:
				return
			case <-epochC:
				rep, err := mgr.Rebalance()
				if err != nil {
					fmt.Fprintf(os.Stderr, "stemcluster: epoch %d: %v\n", rep.Round, err)
				}
				for _, mv := range rep.Moves {
					fmt.Fprintf(os.Stderr, "stemcluster: view %d: round %d moved slot %d node %d → %d (%d keys)\n",
						rep.Epoch, rep.Round, mv.Slot, mv.From, mv.To, mv.Keys)
				}
			case <-beat.C:
				for _, rep := range mgr.Tick() {
					fmt.Fprintf(os.Stderr, "stemcluster: view %d: node %d failed over, %d slots promoted, %d keys re-replicated\n",
						rep.Epoch, rep.Node, len(rep.Moves), rep.ReplicaKeys)
				}
			case <-joinC:
				joinC = nil
				rep, err := rig.Join()
				if err != nil {
					fmt.Fprintf(os.Stderr, "stemcluster: join: %v\n", err)
					continue
				}
				fmt.Fprintf(os.Stderr, "stemcluster: view %d: node %d joined at %s, %d slots handed off\n",
					rep.Epoch, rep.Node, rig.Node(rep.Node).Addr(), len(rep.Moves))
			case <-killC:
				killC = nil
				if err := rig.Kill(cfg.killNode); err != nil {
					fmt.Fprintf(os.Stderr, "stemcluster: kill node %d: %v\n", cfg.killNode, err)
					continue
				}
				fmt.Fprintf(os.Stderr, "stemcluster: killed node %d; awaiting failover\n", cfg.killNode)
			}
		}
	}()

	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigC)
	select {
	case sig := <-sigC:
		fmt.Fprintf(os.Stderr, "stemcluster: %v; shutting down\n", sig)
	case <-stop:
	}
	close(done)
	<-loopDone
	return nil
}
