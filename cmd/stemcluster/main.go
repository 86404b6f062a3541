// Command stemcluster supervises an in-process STEM cluster: it starts N
// cache nodes (each a stemd-style server over its own STEM-managed cache),
// prints their addresses for clients like `stemload -cluster`, and runs the
// node-level giver/taker rebalancing loop — each epoch it polls every node's
// capacity-demand snapshot (the aggregate of its sets' SCDM monitors) and
// migrates a bounded number of ring slots from saturated nodes to
// under-utilized ones.
//
// Usage:
//
//	stemcluster -nodes 3 -capacity 8192 -seed 21
//	stemcluster -nodes 3 -addr-file /tmp/addrs -epoch 500ms -max-moves 2
//	stemcluster -nodes 3 -static              # consistent hashing only, no rebalancing
//	stemcluster -metrics :6060 -trace events.jsonl
//
// With -replication the membership tier comes up too: one agent per node
// (synchronous replica write fan-out plus read-repair), a manager holding
// the member table and giver-aware replica placement, and a heartbeat
// failure detector that promotes replicas when a node dies. -join-after
// and -kill-after/-kill-node script lifecycle events for experiments:
//
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
	var (
		nodes    = flag.Int("nodes", 3, "cluster node count")
		capacity = flag.Int("capacity", 1<<13, "per-node cache capacity in entries")
		shards   = flag.Int("shards", 0, "per-node shard count (0 = default)")
		ways     = flag.Int("ways", 0, "per-node set associativity (0 = default)")
		vnodes   = flag.Int("vnodes", 0, "ring slots per node (0 = the cluster default)")
		seed     = flag.Uint64("seed", 0x57E4, "cluster seed: ring placement and per-node cache seeds")

		epoch     = flag.Duration("epoch", time.Second, "rebalancing epoch interval")
		maxMoves  = flag.Int("max-moves", 0, "slot migrations allowed per epoch (0 = default 2)")
		takerFrac = flag.Float64("taker-frac", 0, "demand score at or above which a node is a taker (0 = default)")
		giverFrac = flag.Float64("giver-frac", 0, "demand score at or below which a node is a giver (0 = default)")
		static    = flag.Bool("static", false, "serve the static consistent-hash ring: no rebalancing loop")

		replication = flag.Int("replication", 0, "copies per slot including the owner; 0 disables the membership tier")
		heartbeat   = flag.Duration("heartbeat", 500*time.Millisecond, "with -replication: failure-detector heartbeat interval")
		suspect     = flag.Int("suspect", 0, "with -replication: consecutive missed heartbeats before a node is declared dead (0 = default)")
		joinAfter   = flag.Duration("join-after", 0, "with -replication: start and join one more node after this delay (0 = never)")
		killAfter   = flag.Duration("kill-after", 0, "with -replication: close -kill-node after this delay, leaving failover to the detector (0 = never)")
		killNode    = flag.Int("kill-node", 1, "with -kill-after: the node to kill")

		addrFile = flag.String("addr-file", "", "write the comma-separated node addresses to this file")
	)
	toolCfg := obs.ToolFlags(flag.CommandLine, "stemcluster", obs.ToolFlagSet{
		Trace: true, TraceHelp: `write node-demand and migration events as JSONL to this file ("-" for stdout)`,
	})
	flag.Parse()

	if err := run(runConfig{
		nodes: *nodes, capacity: *capacity, shards: *shards, ways: *ways,
		vnodes: *vnodes, seed: *seed,
		epoch: *epoch, maxMoves: *maxMoves, takerFrac: *takerFrac, giverFrac: *giverFrac,
		static: *static, addrFile: *addrFile,
		replication: *replication, heartbeat: *heartbeat, suspect: *suspect,
		joinAfter: *joinAfter, killAfter: *killAfter, killNode: *killNode,
		tool: *toolCfg,
	}, nil); err != nil {
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

// run starts the nodes and the rebalancing loop, then blocks until a
// termination signal (or stop closing, for tests).
func run(cfg runConfig, stop <-chan struct{}) error {
	if cfg.nodes <= 0 {
		return fmt.Errorf("need a positive -nodes")
	}
	if cfg.epoch <= 0 {
		return fmt.Errorf("need a positive -epoch")
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

	joined := strings.Join(rig.Addrs(), ",")
	if cfg.addrFile != "" {
		if err := os.WriteFile(cfg.addrFile, []byte(joined+"\n"), 0o644); err != nil {
			return err
		}
	}
	mode := "rebalancing every " + cfg.epoch.String()
	if cfg.static {
		mode = "static ring"
	}
	if cfg.replication > 0 {
		mode += fmt.Sprintf(", membership rf=%d heartbeat=%s", cfg.replication, cfg.heartbeat)
	}
	fmt.Fprintf(os.Stderr, "stemcluster: %d nodes (%s), %d entries each, %s\n",
		cfg.nodes, joined, rig.Node(0).Cache().Capacity(), mode)

	// The membership tier: one agent per node (replica fan-out and
	// read-repair hooks on its server), a manager holding the member table
	// and replica placement, and the heartbeat failure detector.
	var mgr *membership.Manager
	if cfg.replication > 0 {
		if cfg.heartbeat <= 0 {
			return fmt.Errorf("need a positive -heartbeat with -replication")
		}
		if cfg.killAfter > 0 && (cfg.killNode < 0 || cfg.killNode >= cfg.nodes) {
			return fmt.Errorf("-kill-node %d out of range [0, %d)", cfg.killNode, cfg.nodes)
		}
		if err := rig.Bootstrap(membership.Config{
			ReplicationFactor: cfg.replication,
			SuspectAfter:      cfg.suspect,
			Metrics:           reg,
			Observer:          tracer,
		}); err != nil {
			return err
		}
		mgr = rig.Manager()
	}

	// The supervisor loop: one goroutine owns every ring mutation —
	// rebalancing epochs, membership heartbeats (failover), and the
	// scripted join/kill events — so none of them race another.
	done := make(chan struct{})
	loopDone := make(chan struct{})
	var rb *cluster.Rebalancer
	if !cfg.static {
		rb, err = cluster.NewRebalancer(rig.Client(), rig.Keys, cluster.RebalancerConfig{
			MaxMovesPerEpoch: cfg.maxMoves,
			TakerFrac:        cfg.takerFrac,
			GiverFrac:        cfg.giverFrac,
			Metrics:          reg,
			Observer:         tracer,
		})
		if err != nil {
			return err
		}
	}
	if rb == nil && mgr == nil {
		close(loopDone)
	} else {
		var epochC, beatC <-chan time.Time
		if rb != nil {
			ticker := time.NewTicker(cfg.epoch)
			defer ticker.Stop()
			epochC = ticker.C
		}
		var joinC, killC <-chan time.Time
		if mgr != nil {
			ticker := time.NewTicker(cfg.heartbeat)
			defer ticker.Stop()
			beatC = ticker.C
			if cfg.joinAfter > 0 {
				joinC = time.After(cfg.joinAfter)
			}
			if cfg.killAfter > 0 {
				killC = time.After(cfg.killAfter)
			}
		}
		go func() {
			defer close(loopDone)
			for {
				select {
				case <-done:
					return
				case <-epochC:
					report, err := rb.Epoch()
					if err != nil {
						fmt.Fprintf(os.Stderr, "stemcluster: epoch %d: %v\n", report.Epoch, err)
						continue
					}
					for _, mv := range report.Moves {
						fmt.Fprintf(os.Stderr, "stemcluster: epoch %d: slot %d node %d → %d (%d keys)\n",
							report.Epoch, mv.Slot, mv.From, mv.To, mv.Keys)
					}
				case <-beatC:
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
	}

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
