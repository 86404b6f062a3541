// Command stemcluster supervises an in-process STEM cluster: it starts N
// cache nodes (each a stemd-style server over its own STEM-managed cache),
// prints their addresses for clients like `stemload -cluster`, and drives
// the cluster's one control plane, a membership.Manager, from one ticker:
// every -heartbeat the manager pings each member (failure detection and
// failover). The manager is the only writer of slot ownership, so every
// move — join, leave, failover — re-places replicas and pushes a new view
// to the nodes' agents (synchronous replica write fan-out); clients learn
// each view from the nodes' MOVED answers.
// -join-after and -kill-after/-kill-node script lifecycle events for
// experiments.
//
// Usage:
//
//	stemcluster -nodes 3 -capacity 8192 -seed 21
//	stemcluster -nodes 3 -addr-file /tmp/addrs
//	stemcluster -metrics :6060 -trace events.jsonl
//	stemcluster -nodes 3 -replication 2 -heartbeat 250ms -suspect 3
//	stemcluster -nodes 3 -replication 2 -kill-after 10s -kill-node 1
//	stemcluster -nodes 3 -replication 2 -join-after 10s
//
// Drive it with the load generator, matching -seed and handing it any of
// the members' addresses: the rest of the cluster, its slot count and a
// node that joins later reach the load generator in views:
//
//	stemload -cluster "$(cat /tmp/addrs)" -seed 21 -dist hotspot-shift
//	stemload -cluster "$(cut -d, -f2 /tmp/addrs)" -seed 21
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
	flag.IntVar(&cfg.vnodes, "vnodes", 0, "slots per bootstrap node: the cluster has -nodes × -vnodes slots (0 = the cluster default)")
	flag.Uint64Var(&cfg.seed, "seed", 0x57E4, "cluster seed: the key→slot hash's salt and per-node cache seeds")

	flag.IntVar(&cfg.replication, "replication", 1, "copies per slot including the owner (1 = owner only)")
	flag.DurationVar(&cfg.heartbeat, "heartbeat", 500*time.Millisecond, "failure-detector heartbeat interval")
	flag.IntVar(&cfg.suspect, "suspect", 0, "consecutive missed heartbeats before a node is declared dead (0 = default)")
	flag.DurationVar(&cfg.joinAfter, "join-after", 0, "start and join one more node after this delay (0 = never)")
	flag.DurationVar(&cfg.killAfter, "kill-after", 0, "close -kill-node after this delay, leaving failover to the detector (0 = never)")
	flag.IntVar(&cfg.killNode, "kill-node", 1, "with -kill-after: the node to kill")

	flag.StringVar(&cfg.addrFile, "addr-file", "", "write the comma-separated node addresses to this file")
	toolCfg := obs.ToolFlags(flag.CommandLine, "stemcluster", obs.ToolFlagSet{
		Trace: true, TraceHelp: `write the manager's lifecycle and replica events as JSONL to this file ("-" for stdout)`,
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
	fmt.Fprintf(os.Stderr, "stemcluster: %d nodes (%s), %d entries each, rf=%d heartbeat=%s\n",
		cfg.nodes, joined, rig.Node(0).Cache().Capacity(), cfg.replication, cfg.heartbeat)

	// The supervisor loop: one goroutine drives the manager — heartbeats
	// (failover) and the scripted join/kill events — so no two ownership
	// changes race.
	beat := time.NewTicker(cfg.heartbeat)
	defer beat.Stop()
	var joinC, killC <-chan time.Time
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
			case <-beat.C:
				for _, rep := range mgr.Tick() {
					fmt.Fprintf(os.Stderr, "stemcluster: view %d: node %d failed over, %d slots promoted, %d keys re-replicated, %d slots below rf\n",
						rep.Epoch, rep.Node, len(rep.Moves), rep.ReplicaKeys, rep.BelowRF)
				}
			case <-joinC:
				joinC = nil
				rep, err := rig.Join()
				if err != nil {
					fmt.Fprintf(os.Stderr, "stemcluster: join: %v\n", err)
					continue
				}
				fmt.Fprintf(os.Stderr, "stemcluster: view %d: node %d joined at %s, %d slots handed off, %d slots below rf\n",
					rep.Epoch, rep.Node, rig.Node(rep.Node).Addr(), len(rep.Moves), rep.BelowRF)
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
