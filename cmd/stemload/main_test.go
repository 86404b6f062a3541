package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/membership"
	"repro/internal/stemcache"
)

// invoke runs one stemload command line in-process and returns its stdout.
func invoke(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := stemload(args, &out)
	return out.String(), err
}

// TestDrive runs the cache-aside loop against each kind of target: one
// server, and a three-node ring through the routing client. Each target
// serves a closed pass and then a saturating open pass. The closed pass
// doubles as warm-up, so the open pass queues against a steady-state cache;
// scheduled far above what loopback sustains, the open loop charges every
// arrival's queueing to its histogram, so its tail must be at least the
// closed loop's (the coordinated-omission claim). -ops does not divide by
// -conns, so the remainder must run too: every pass issues exactly -ops
// GETs, counted by the client and by the servers' own STATS.
func TestDrive(t *testing.T) {
	if testing.Short() {
		t.Skip("drives loopback servers for tens of thousands of ops")
	}
	const ops, capacity = 8_001, 1 << 10
	for _, row := range []struct {
		name string
		// start hosts the target and returns its stemload flags and node
		// count.
		start func(t *testing.T) (target []string, nodes int)
	}{
		{"addr", func(t *testing.T) ([]string, int) {
			node, err := cluster.StartNode(0, cluster.NodeConfig{Cache: stemcache.Config{Capacity: capacity, Seed: 0x57E4}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { node.Close() })
			return []string{"-addr", node.Addr()}, 1
		}},
		{"cluster", func(t *testing.T) ([]string, int) {
			rig, err := membership.StartRig(3,
				cluster.NodeConfig{Cache: stemcache.Config{Capacity: capacity / 3}},
				cluster.Config{Seed: 21})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(rig.Close)
			return []string{"-cluster", strings.Join(rig.Addrs(), ","), "-seed", "21"}, 3
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			target, nodes := row.start(t)
			var passes []result
			for i, rate := range []string{"0", "5000000"} {
				path := filepath.Join(t.TempDir(), "report.json")
				out, err := invoke(t, append(target, "-ops", strconv.Itoa(ops), "-conns", "2",
					"-capacity", strconv.Itoa(capacity), "-value-size", "64", "-trace-every", "8",
					"-rate", rate, "-json", path)...)
				if err != nil {
					t.Fatal(err)
				}
				t.Log("\n" + out)
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				var rep report
				if err := json.Unmarshal(b, &rep); err != nil {
					t.Fatal(err)
				}
				if rep.Bench != "stemload" || rep.Target != row.name || rep.Config.Ops != ops {
					t.Errorf("report envelope %q/%q/%d ops, want stemload/%s/%d", rep.Bench, rep.Target, rep.Config.Ops, row.name, ops)
				}
				r := rep.Result
				if want := []string{"closed", "open"}[i]; r.Mode != want {
					t.Errorf("pass %d ran a %s loop, want %s", i, r.Mode, want)
				}
				if r.LatP50Micros > r.LatP99Micros || r.LatP99Micros > r.LatP999Micros || r.LatP999Micros > r.LatMaxMicros {
					t.Errorf("%s pass: disordered quantiles p50 %v p99 %v p99.9 %v max %v",
						r.Mode, r.LatP50Micros, r.LatP99Micros, r.LatP999Micros, r.LatMaxMicros)
				}
				if r.OpsPerSec < 1 || r.TraceSamples == 0 {
					t.Errorf("%s pass: %.1f ops/s, %d trace samples; want both positive", r.Mode, r.OpsPerSec, r.TraceSamples)
				}

				// The servers count cumulatively: after pass i they have
				// served (i+1)*ops GETs.
				gets := r.Server.Cache.Gets // -addr: the one server's document
				if nodes > 1 {
					if len(r.Nodes) != nodes {
						t.Fatalf("%d STATS documents, want one per node (%d)", len(r.Nodes), nodes)
					}
					for n, doc := range r.Nodes {
						if doc.NodeID != n {
							t.Errorf("STATS document %d is node %d's", n, doc.NodeID)
						}
						gets += doc.Cache.Gets
					}
				}
				if r.Ops != ops || gets != uint64((i+1)*ops) {
					t.Errorf("%s pass: client counted %d GETs, servers %d in total; want exactly %d per pass",
						r.Mode, r.Ops, gets, ops)
				}
				passes = append(passes, r)
			}
			// Tighter than open p99 >= closed p99, which it implies once the
			// quantiles are ordered: arrivals are all due within the first
			// few milliseconds, so the median open-loop sample waits about
			// half the pass behind the backlog.
			if closed, open := passes[0], passes[1]; open.LatP50Micros < closed.LatP99Micros {
				t.Errorf("open-loop p50 %.1fus below the closed loop's p99 %.1fus: the open loop omitted queueing",
					open.LatP50Micros, closed.LatP99Micros)
			}
		})
	}
}

// TestBadInvocations: a command line stemload cannot honour is an error (a
// non-zero exit) raised before any connection is made, never a panic or a
// run that silently ignores the flag.
func TestBadInvocations(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()
	for _, args := range [][]string{
		{},
		{"-addr", addr, "-cluster", addr},
		{"-scenario", "compare"},
		{"-addr", addr, "-bogus"},
		{"-addr", addr, "extra"},
		{"-addr", addr, "-ops", "0"},
		{"-addr", addr, "-conns", "-1"},
		{"-addr", addr, "-value-size", "-1"},
		{"-addr", addr, "-rate", "-5"},
		{"-addr", addr, "-rate", "NaN"},
		{"-addr", addr, "-rate", "+Inf"},
		{"-addr", addr, "-trace-every", "-3"},
		{"-addr", addr, "-dist", "nope"},
		{"-addr", addr, "-capacity", "0"},
	} {
		if out, err := invoke(t, args...); err == nil {
			t.Errorf("stemload %q: no error; printed %q", args, out)
		}
	}
	// Nothing dialled: the kernel would have queued any connection for Accept.
	ln.(*net.TCPListener).SetDeadline(time.Now().Add(50 * time.Millisecond))
	if conn, err := ln.Accept(); err == nil {
		conn.Close()
		t.Error("a bad invocation connected to the target before rejecting its flags")
	}
}

// reportOf runs one stemload command line with -json and returns the report
// it wrote.
func reportOf(t *testing.T, args ...string) report {
	t.Helper()
	path := filepath.Join(t.TempDir(), "report.json")
	out, err := invoke(t, append(args, "-json", path)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + out)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// rigGets reads the listed rig nodes' cumulative GET counts from their
// caches, keyed by node id. The membership tier's own traffic (migration,
// promotion) counts too, so a pass's share is measured from just before it.
func rigGets(rig *membership.Rig, ids ...int) map[int]uint64 {
	gets := map[int]uint64{}
	for _, id := range ids {
		gets[id] = rig.Node(id).Cache().Stats().Gets
	}
	return gets
}

// TestScenarios drives stemload against the targets its former self-hosted
// scenarios stood up: two engines side by side, a herd of connections on a
// tiny keyspace, a ring that loses a node, and a ring that gains one. The
// serving tiers' own claims (promotion, bounded movement) are held
// by their packages' tests; these rows check what stemload reports from
// each target: exactly -ops GETs, all of them served and counted in the
// servers' STATS, one STATS document per live node, and a dead node as an
// error rather than a partial run.
func TestScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("drives loopback servers and rings for tens of thousands of ops")
	}
	// memberRig starts a 3-node ring with replication factor 2 and a
	// fail-fast connection template, and returns it with the -cluster flags
	// that reach every node.
	memberRig := func(t *testing.T) (*membership.Rig, func(addrs []string) []string) {
		rig, err := membership.StartRig(3,
			cluster.NodeConfig{Cache: stemcache.Config{Capacity: 4096, Shards: 2, Ways: 8}},
			cluster.Config{Seed: 33,
				Client: client.Config{Retries: -1, DialTimeout: 500 * time.Millisecond, OpTimeout: 2 * time.Second}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rig.Close)
		if err := rig.Bootstrap(membership.Config{ReplicationFactor: 2, SuspectAfter: 2}); err != nil {
			t.Fatal(err)
		}
		return rig, func(addrs []string) []string {
			return []string{"-cluster", strings.Join(addrs, ","), "-seed", "33",
				"-ops", "4001", "-conns", "2", "-capacity", "4096", "-value-size", "32"}
		}
	}
	// checkRing asserts a -cluster pass's accounting: exactly -ops GETs on
	// the client, one STATS document per node in want and none from the
	// others (which are down), and every one of those GETs served by those
	// nodes, once.
	checkRing := func(t *testing.T, r result, before map[int]uint64, want ...int) {
		t.Helper()
		after := map[int]uint64{}
		for _, doc := range r.Nodes {
			if doc != nil {
				after[doc.NodeID] = doc.Cache.Gets
			}
		}
		if len(after) != len(want) {
			t.Fatalf("%d STATS documents, want %d (nodes %v)", len(after), len(want), want)
		}
		var grown uint64
		for _, id := range want {
			if _, ok := after[id]; !ok {
				t.Fatalf("no STATS document from node %d", id)
			}
			grown += after[id] - before[id]
		}
		if r.Ops != 4001 || grown != 4001 {
			t.Errorf("client counted %d GETs, the nodes %d (%v before, %v after); want exactly 4001 on both",
				r.Ops, grown, before, after)
		}
	}

	t.Run("compare", func(t *testing.T) {
		// The same flags against a STEM node and a sharded-LRU node of
		// identical geometry. The workers race, so STEM's no-harm bound is a
		// margin; the deterministic STEM >= LRU claim is the server package's.
		var hit [2]float64
		for i, lru := range []bool{false, true} {
			ccfg := stemcache.Config{Capacity: 1 << 10, Seed: 0x57E4}
			if lru {
				ccfg = ccfg.ShardedLRU()
			}
			node, err := cluster.StartNode(0, cluster.NodeConfig{Cache: ccfg})
			if err != nil {
				t.Fatal(err)
			}
			r := reportOf(t, "-addr", node.Addr(), "-dist", "mixed", "-ops", "40001", "-conns", "2",
				"-capacity", "1024", "-value-size", "64").Result
			node.Close()
			// 40001 does not divide by 2 workers: the remainder must run.
			if r.Ops != 40_001 || r.Server.Cache.Gets != 40_001 {
				t.Errorf("lru=%v: executed %d GETs (server saw %d), want exactly 40001", lru, r.Ops, r.Server.Cache.Gets)
			}
			hit[i] = r.ServerHitRate
		}
		t.Logf("server hit rate: stem %.4f, lru %.4f", hit[0], hit[1])
		if hit[0]-hit[1] < -0.01 {
			t.Errorf("STEM's server hit rate %.4f is more than 0.01 below the sharded LRU's %.4f", hit[0], hit[1])
		}
	})

	t.Run("herd", func(t *testing.T) {
		// 64 workers stampede a 64-entry keyspace from a cold cache: most
		// GETs race another worker's miss on the same hot key.
		node, err := cluster.StartNode(0, cluster.NodeConfig{Cache: stemcache.Config{Capacity: 64, Seed: 0x57E4}})
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		const conns, ops = 64, 64*40 + 1
		r := reportOf(t, "-addr", node.Addr(), "-dist", "zipf", "-ops", strconv.Itoa(ops),
			"-conns", strconv.Itoa(conns), "-capacity", "64", "-value-size", "16").Result
		srv := r.Server
		if r.Ops != ops || srv.Cache.Gets != ops {
			t.Errorf("executed %d GETs (server saw %d), want exactly %d", r.Ops, srv.Cache.Gets, ops)
		}
		if hits := uint64(math.Round(r.ClientHitRate * float64(r.Ops))); hits != srv.Cache.Hits {
			t.Errorf("client counted %d hits, the server %d", hits, srv.Cache.Hits)
		}
		if srv.ProtoErrors != 0 || srv.ConnsAccepted == 0 || srv.ConnsAccepted > conns {
			t.Errorf("server accepted %d connections (want 1..%d) with %d protocol errors",
				srv.ConnsAccepted, conns, srv.ProtoErrors)
		}
	})

	t.Run("failover", func(t *testing.T) {
		rig, flags := memberRig(t)
		all := rig.Addrs()
		before := rigGets(rig, 0, 1, 2)
		checkRing(t, reportOf(t, flags(all)...).Result, before, 0, 1, 2)

		const kill = 1
		if err := rig.Kill(kill); err != nil {
			t.Fatal(err)
		}
		// The full ring now has a dead node: stemload must refuse the run.
		if out, err := invoke(t, flags(all)...); err == nil || !strings.Contains(err.Error(), "node 1") {
			t.Errorf("drive over a ring with node 1 dead: error %v, printed %q; want an error naming node 1", err, out)
		}
		var failovers []membership.Report
		for i := 0; i < 4 && len(failovers) == 0; i++ {
			failovers = append(failovers, rig.Manager().Tick()...)
		}
		if len(failovers) != 1 || failovers[0].Node != kill {
			t.Fatalf("expected one failover of node %d, got %+v", kill, failovers)
		}
		// The survivors serve a full pass over the same flags, and only
		// they report: the view marks node 1 dead.
		before = rigGets(rig, 0, 2)
		out := reportOf(t, flags(all)...).Result
		checkRing(t, out, before, 0, 2)
		if len(out.Nodes) != 3 || out.Nodes[kill] != nil {
			t.Errorf("STATS documents %v, want node %d's null among three", out.Nodes, kill)
		}
	})

	t.Run("scaleout", func(t *testing.T) {
		rig, flags := memberRig(t)
		all := rig.Addrs()
		before := rigGets(rig, 0, 1, 2)
		checkRing(t, reportOf(t, flags(all)...).Result, before, 0, 1, 2)

		rep, err := rig.Join()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Moves) == 0 {
			t.Fatal("the join moved no slots to the new node")
		}
		// The addresses are a seed list: the four post-join addresses, and
		// the joiner's alone, each reach all four nodes through the view
		// the first answer carries.
		joined := rig.Addrs()
		for _, seeds := range [][]string{joined, joined[3:]} {
			before = rigGets(rig, 0, 1, 2, 3)
			after := reportOf(t, flags(seeds)...).Result
			checkRing(t, after, before, 0, 1, 2, 3)
			if joiner := after.Nodes[3]; joiner.Cache.Gets == 0 || joiner.Len == 0 {
				t.Errorf("seeded with %v: the joined node served %d GETs and holds %d entries; want both positive",
					seeds, joiner.Cache.Gets, joiner.Len)
			}
		}
	})
}
