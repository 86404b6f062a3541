package membership_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/membership"
	"repro/internal/stemcache"
)

// The membership e2e rig: a loopback cluster with one agent per node and a
// manager driving lifecycle transitions. Capacities are sized so nothing
// evicts — any missing key is a replication bug, not cache pressure.
const (
	memNodes  = 3
	memVNodes = 4 // 12 slots
	memSeed   = 33
	memKeys   = 300
	// memCapacity and memWays oversize each node's cache (8-way sets, far
	// more ways than keys per set at this keyspace) so set-associative
	// eviction cannot fire: a missing key in these tests is a replication
	// bug, never cache pressure.
	memCapacity = 4096
	memWays     = 8
)

// memTpl is the connection template for every tier: fail fast (no retries,
// short dial timeout) so a dead node surfaces as a transient error within
// one probe, not a retry storm.
func memTpl() client.Config {
	return client.Config{
		Retries:     -1,
		DialTimeout: 500 * time.Millisecond,
		OpTimeout:   2 * time.Second,
	}
}

// startMemCluster boots n nodes, the routing client, their agents, and a
// bootstrapped manager with the given membership config.
func startMemCluster(t *testing.T, n int, cfg membership.Config) *membership.Rig {
	t.Helper()
	rig, err := membership.StartRig(n,
		cluster.NodeConfig{Cache: stemcache.Config{Capacity: memCapacity, Shards: 2, Ways: memWays}},
		cluster.Config{VNodes: memVNodes, Seed: memSeed, Client: memTpl()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rig.Close)
	if err := rig.Bootstrap(cfg); err != nil {
		t.Fatal(err)
	}
	return rig
}

func memKey(i int) string  { return fmt.Sprintf("key-%04d", i) }
func memVal(i int) []byte  { return []byte(fmt.Sprintf("val-%04d", i)) }
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// writeKeys stores keys [lo, hi) through the routing client; every return
// is an ack the cluster must not lose.
func writeKeys(t *testing.T, cl *cluster.Client, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		if err := cl.Set(memKey(i), memVal(i)); err != nil {
			t.Fatalf("set %q: %v", memKey(i), err)
		}
	}
}

// readKeys fetches keys [lo, hi) and returns how many were found with the
// right value; a wrong value fails immediately.
func readKeys(t *testing.T, cl *cluster.Client, lo, hi int) (found int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		v, ok, err := cl.Get(memKey(i))
		if err != nil {
			t.Fatalf("get %q: %v", memKey(i), err)
		}
		if !ok {
			continue
		}
		if string(v) != string(memVal(i)) {
			t.Fatalf("get %q returned %q, want %q", memKey(i), v, memVal(i))
		}
		found++
	}
	return found
}

// TestFailoverKeepsAckedWrites is the kill-a-node acceptance run: 3 nodes,
// RF=2, one node dies mid-run. Every write acked before or after the death
// must survive failover — the synchronous replica fan-out plus replica
// promotion make the acked set lossless through one node failure.
func TestFailoverKeepsAckedWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("membership e2e drives loopback round trips")
	}
	mc := startMemCluster(t, memNodes, membership.Config{ReplicationFactor: 2, SuspectAfter: 2})

	writeKeys(t, mc.Client(), 0, memKeys)

	const kill = 1
	if err := mc.Kill(kill); err != nil {
		t.Fatal(err)
	}
	// Mid-run writes against a dead owner: the client's replica retry must
	// land them inside the slot's replica group, still acked.
	writeKeys(t, mc.Client(), memKeys, memKeys+100)

	var failovers []membership.Report
	for i := 0; i < 4 && len(failovers) == 0; i++ {
		failovers = append(failovers, mc.Manager().Tick()...)
	}
	if len(failovers) != 1 || failovers[0].Node != kill || len(failovers[0].Moves) == 0 {
		t.Fatalf("expected one failover of node %d promoting its slots, got %+v", kill, failovers)
	}
	for _, mv := range failovers[0].Moves {
		if mv.From != kill {
			t.Fatalf("failover moved slot %d away from live node %d", mv.Slot, mv.From)
		}
		if mv.To == kill {
			t.Fatalf("failover promoted slot %d onto the dead node", mv.Slot)
		}
	}
	ring := mc.Client().Ring()
	for s := 0; s < ring.Slots(); s++ {
		if ring.Owner(s) == kill {
			t.Fatalf("slot %d still owned by the dead node after failover", s)
		}
	}

	got := readKeys(t, mc.Client(), 0, memKeys+100)
	t.Logf("%d slots promoted; %d of %d acked writes read back", len(failovers[0].Moves), got, memKeys+100)
	if got != memKeys+100 {
		t.Fatalf("lost %d of %d acked writes across failover", memKeys+100-got, memKeys+100)
	}
}

// TestFailoverHitRateWithinBound compares the post-failover hit rate
// against a twin run that never loses a node: with RF=2 the promoted
// replicas already hold the fanned-out writes, so the hit rate must land
// within 5 percentage points of the undisturbed run.
func TestFailoverHitRateWithinBound(t *testing.T) {
	if testing.Short() {
		t.Skip("membership e2e drives loopback round trips")
	}
	run := func(kill bool) float64 {
		mc := startMemCluster(t, memNodes, membership.Config{ReplicationFactor: 2, SuspectAfter: 2})
		writeKeys(t, mc.Client(), 0, memKeys)
		if kill {
			if err := mc.Kill(1); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				if reps := mc.Manager().Tick(); len(reps) > 0 {
					break
				}
			}
		}
		return float64(readKeys(t, mc.Client(), 0, memKeys)) / float64(memKeys)
	}
	base := run(false)
	failed := run(true)
	t.Logf("no-failure hit rate %.4f, post-failover %.4f", base, failed)
	if base-failed > 0.05 {
		t.Fatalf("post-failover hit rate %.4f more than 5pp below the no-failure run's %.4f", failed, base)
	}
}

// TestJoinBoundedMovementAndDeterminism is the scale-out run: a fourth
// node joins a loaded 3-node cluster. The handoff must move at most
// ⌈slots/nodes⌉ slots, bump exactly the moved slots' ownership epochs, and
// keep every key readable; an identical rerun must plan a byte-identical
// handoff.
func TestJoinBoundedMovementAndDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("membership e2e drives loopback round trips")
	}
	run := func() (membership.Report, []uint64) {
		mc := startMemCluster(t, memNodes, membership.Config{ReplicationFactor: 2})
		writeKeys(t, mc.Client(), 0, memKeys)

		before := mc.Client().Ring().Epochs()
		rep, err := mc.Join()
		if err != nil {
			t.Fatal(err)
		}

		ring := mc.Client().Ring()
		bound := ceilDiv(ring.Slots(), memNodes+1)
		t.Logf("join moved %d slots (bound %d)", len(rep.Moves), bound)
		if len(rep.Moves) == 0 || len(rep.Moves) > bound {
			t.Fatalf("join moved %d slots, want 1..%d", len(rep.Moves), bound)
		}
		moved := make(map[int]bool)
		for _, mv := range rep.Moves {
			moved[mv.Slot] = true
			if mv.To != memNodes {
				t.Fatalf("join moved slot %d to node %d, not the joiner", mv.Slot, mv.To)
			}
			if ring.Owner(mv.Slot) != memNodes {
				t.Fatalf("slot %d not owned by the joiner after the move", mv.Slot)
			}
		}
		after := ring.Epochs()
		for s := range after {
			switch {
			case moved[s] && after[s] <= before[s]:
				t.Fatalf("moved slot %d epoch did not advance: %d -> %d", s, before[s], after[s])
			case !moved[s] && after[s] != before[s]:
				t.Fatalf("unmoved slot %d epoch changed: %d -> %d", s, before[s], after[s])
			}
		}

		if got := readKeys(t, mc.Client(), 0, memKeys); got != memKeys {
			t.Fatalf("scale-out lost %d of %d keys", memKeys-got, memKeys)
		}
		return rep, after
	}

	rep1, epochs1 := run()
	rep2, epochs2 := run()
	if fmt.Sprint(rep1) != fmt.Sprint(rep2) {
		t.Fatalf("join rerun planned a different handoff:\n%+v\n%+v", rep1, rep2)
	}
	if fmt.Sprint(epochs1) != fmt.Sprint(epochs2) {
		t.Fatalf("join rerun produced different epoch tables:\n%v\n%v", epochs1, epochs2)
	}
}

// TestLeaveBoundedMovement: a graceful leave migrates exactly the
// departing node's slots (at most ⌈slots/nodes⌉ on a balanced ring) and no
// key becomes unreachable.
func TestLeaveBoundedMovement(t *testing.T) {
	if testing.Short() {
		t.Skip("membership e2e drives loopback round trips")
	}
	mc := startMemCluster(t, memNodes, membership.Config{ReplicationFactor: 2})
	writeKeys(t, mc.Client(), 0, memKeys)

	const leaving = 2
	ring := mc.Client().Ring()
	owned := len(ring.OwnedSlots(leaving))
	rep, err := mc.Manager().Leave(leaving)
	if err != nil {
		t.Fatal(err)
	}
	bound := ceilDiv(ring.Slots(), memNodes)
	if len(rep.Moves) != owned || len(rep.Moves) > bound {
		t.Fatalf("leave moved %d slots; node owned %d, bound %d", len(rep.Moves), owned, bound)
	}
	if n := len(ring.OwnedSlots(leaving)); n != 0 {
		t.Fatalf("departed node still owns %d slots", n)
	}
	if got := readKeys(t, mc.Client(), 0, memKeys); got != memKeys {
		t.Fatalf("leave lost %d of %d keys", memKeys-got, memKeys)
	}
	// A leave of a non-member must fail cleanly.
	if _, err := mc.Manager().Leave(leaving); err == nil {
		t.Fatal("second leave of the same node succeeded")
	}
}

// TestDetectorEdges pins the suspicion counter: death fires exactly once,
// a success resets the streak, and Grow extends coverage.
func TestDetectorEdges(t *testing.T) {
	d := membership.NewDetector(2, 3)
	if d.Report(0, false) || d.Report(0, true) {
		t.Fatal("death before the threshold")
	}
	if d.Missed(0) != 0 {
		t.Fatalf("success did not reset the streak: %d", d.Missed(0))
	}
	d.Report(0, false)
	d.Report(0, false)
	if !d.Report(0, false) {
		t.Fatal("third consecutive miss did not declare death")
	}
	if d.Report(0, false) {
		t.Fatal("death declared twice")
	}
	if !d.Dead(0) {
		t.Fatal("Dead(0) false after death")
	}
	d.Grow(3)
	if d.Dead(2) || d.Missed(2) != 0 {
		t.Fatal("grown node not fresh")
	}
	if errs := d.Missed(1); errs != 0 {
		t.Fatalf("untouched node has %d misses", errs)
	}
}

// TestManagerValidation pins constructor errors.
func TestManagerValidation(t *testing.T) {
	if _, err := membership.New(nil, nil, nil, membership.Config{}); err == nil {
		t.Fatal("nil client accepted")
	}
}
