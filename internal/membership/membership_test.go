package membership_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/membership"
	"repro/internal/obs"
	"repro/internal/stemcache"
	"repro/internal/wire"
)

// The membership e2e rig: a loopback cluster with one agent per node and a
// manager driving lifecycle transitions. Capacities are sized so nothing
// evicts at memKeys — any missing key is a replication bug, not cache
// pressure. Only TestWarmFailoverKeepsReplicationFactor writes enough to
// fill the caches.
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
// bootstrapped manager with the given membership config, every tier on one
// manual clock, which it returns: TTLs run out and a write's wait for a
// failover passes only as the clock moves.
func startMemCluster(t *testing.T, n int, cfg membership.Config) (*membership.Rig, *clock.Manual) {
	t.Helper()
	clk := new(clock.Manual)
	tpl := memTpl()
	tpl.Clock = clk
	rig, err := membership.StartRig(n,
		cluster.NodeConfig{Cache: stemcache.Config{Capacity: memCapacity, Shards: 2, Ways: memWays, Clock: clk}},
		cluster.Config{VNodes: memVNodes, Seed: memSeed, Client: tpl})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rig.Close)
	if err := rig.Bootstrap(cfg); err != nil {
		t.Fatal(err)
	}
	return rig, clk
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
// RF=2, one node dies mid-run. Between the death and the failover a write
// fails exactly when its key's owner is the dead node: writes go to the
// owner alone, so the cluster acks nothing it could lose. Every write acked
// before or after the death — the failed ones written again after the
// failover — must survive: the synchronous replica fan-out plus replica
// promotion make the acked set lossless through one node failure.
func TestFailoverKeepsAckedWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("membership e2e drives loopback round trips")
	}
	mc, _ := startMemCluster(t, memNodes, membership.Config{ReplicationFactor: 2, SuspectAfter: 2})

	writeKeys(t, mc.Client(), 0, memKeys)

	const kill = 1
	if err := mc.Kill(kill); err != nil {
		t.Fatal(err)
	}
	// Mid-run writes before any Tick: those owned by the dead node fail
	// with its transient error once they have waited OpTimeout for a
	// failover that does not come, the rest are acked. They run at once, so
	// the waits overlap.
	view := mc.Manager().View()
	errs := make([]error, 100)
	var wg sync.WaitGroup
	for j := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[j] = mc.Client().Set(memKey(memKeys+j), memVal(memKeys+j))
		}()
	}
	wg.Wait()
	var failed []int
	for j, err := range errs {
		i := memKeys + j
		owner := view.Owner(mc.Client().Ring().SlotOf(memKey(i), mc.Client().Ring().Slots()))
		switch {
		case owner == kill && (err == nil || !client.IsTransient(err)):
			t.Fatalf("set %q on the dead owner = %v, want a transient error", memKey(i), err)
		case owner != kill && err != nil:
			t.Fatalf("set %q on live node %d: %v", memKey(i), owner, err)
		}
		if err != nil {
			failed = append(failed, i)
		}
	}
	if len(failed) == 0 {
		t.Fatalf("precondition: none of the 100 mid-run keys is owned by node %d", kill)
	}

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
	for s, o := range mc.Manager().View().Owners() {
		if o == kill {
			t.Fatalf("slot %d still owned by the dead node after failover", s)
		}
	}
	for _, i := range failed {
		if err := mc.Client().Set(memKey(i), memVal(i)); err != nil {
			t.Fatalf("set %q after failover: %v", memKey(i), err)
		}
	}

	got := readKeys(t, mc.Client(), 0, memKeys+100)
	t.Logf("%d slots promoted; %d writes refused during the outage and retried; %d of %d acked writes read back",
		len(failovers[0].Moves), len(failed), got, memKeys+100)
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
		mc, _ := startMemCluster(t, memNodes, membership.Config{ReplicationFactor: 2, SuspectAfter: 2})
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

// TestFailoverDoesNotResurrectExpiredKeys: an expired key never hits, a
// failover included. 300 keys are written with a 1.5 s TTL, node 1 dies
// and fails over at the first Tick, every key still hits, and once the
// manual clock is past the TTL every key must miss.
// The promoted owner's copies expire on their own; a follower that was
// backfilled by the failover holds its copy with no TTL, and no node asks
// another on a miss, so that copy never comes back through the owner.
func TestFailoverDoesNotResurrectExpiredKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("membership e2e drives loopback round trips")
	}
	mc, clk := startMemCluster(t, memNodes, membership.Config{ReplicationFactor: 2, SuspectAfter: 1})
	writeTTLKeys(t, mc.Client())

	const kill = 1
	if err := mc.Kill(kill); err != nil {
		t.Fatal(err)
	}
	if reps := mc.Manager().Tick(); len(reps) != 1 || reps[0].Node != kill {
		t.Fatalf("expected one failover of node %d at the first tick, got %+v", kill, reps)
	}
	if got := readKeys(t, mc.Client(), 0, memKeys); got != memKeys {
		t.Fatalf("%d of %d keys hit before their TTL ran out, want all", got, memKeys)
	}
	clk.Advance(memTTL + time.Second)

	if got := readKeys(t, mc.Client(), 0, memKeys); got != 0 {
		t.Fatalf("%d of %d keys hit after their TTL ran out", got, memKeys)
	}
}

// TestJoinHandoffDropsTTL pins ROADMAP item 32's known defect: a slot copy
// installs every key with the target's default TTL, here never, so the
// keys a Join moves outlive their TTL on the newcomer. Item 32's fix
// changes the count after the Advance to 0.
func TestJoinHandoffDropsTTL(t *testing.T) {
	if testing.Short() {
		t.Skip("membership e2e drives loopback round trips")
	}
	mc, clk := startMemCluster(t, memNodes, membership.Config{ReplicationFactor: 2})
	writeTTLKeys(t, mc.Client())
	if got := readKeys(t, mc.Client(), 0, memKeys); got != memKeys {
		t.Fatalf("%d of %d keys hit before their TTL ran out, want all", got, memKeys)
	}
	if _, err := mc.Join(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(memTTL + time.Second)

	const moved = 67 // the keys on the slots the join handed off
	if got := readKeys(t, mc.Client(), 0, memKeys); got != moved {
		t.Fatalf("%d of %d keys hit after their TTL ran out, want the %d the join moved", got, memKeys, moved)
	}
}

// memTTL is the TTL writeTTLKeys gives every key.
const memTTL = 1500 * time.Millisecond

// writeTTLKeys stores keys [0, memKeys) with memTTL through the routing
// client.
func writeTTLKeys(t *testing.T, cl *cluster.Client) {
	t.Helper()
	for i := 0; i < memKeys; i++ {
		if err := cl.SetTTL(memKey(i), memVal(i), memTTL); err != nil {
			t.Fatalf("setttl %q: %v", memKey(i), err)
		}
	}
}

// warmPlaced is the replica table (owner, then follower, per slot) the
// warm-failover rig holds before its kill, at every key count: a pure
// function of memSeed, memVNodes and the placement rule.
const warmPlaced = "[[0 1] [1 0] [2 0] [0 2] [1 2] [2 1] [0 1] [1 0] [2 0] [0 2] [1 2] [2 1]]"

// TestWarmFailoverKeepsReplicationFactor: RF=2 is a promise on a warm
// cluster too. Each key takes two of the rig's 3 × 4096 entries, so 3,000
// keys fill half of them, 6,000 nearly all and 24,000 four times over, and
// set conflicts evict well before that. Write, Tick, check the replica
// table against warmPlaced, kill node 2 and fail it over: the two
// survivors must hold every slot between them, and the failover's report
// and gauge must say no slot is short. Read-back is logged beside it — a replica takes its host's capacity, so
// keys can go missing, but never more than the nodes evicted.
func TestWarmFailoverKeepsReplicationFactor(t *testing.T) {
	if testing.Short() {
		t.Skip("membership e2e drives loopback round trips")
	}
	for _, keys := range []int{3000, 6000, 24000} {
		t.Run(fmt.Sprintf("%dkeys", keys), func(t *testing.T) {
			reg := obs.NewRegistry()
			mc, _ := startMemCluster(t, memNodes, membership.Config{ReplicationFactor: 2, Metrics: reg})
			writeKeys(t, mc.Client(), 0, keys)
			mc.Manager().Tick()
			placed := make([][]int, mc.Client().Ring().Slots())
			for s := range placed {
				placed[s] = mc.Manager().View().Replicas[s]
			}
			if got := fmt.Sprint(placed); got != warmPlaced {
				t.Errorf("replica table before the kill %s, want %s", got, warmPlaced)
			}

			const kill = 2
			if err := mc.Kill(kill); err != nil {
				t.Fatal(err)
			}
			var failovers []membership.Report
			for i := 0; i < 4; i++ {
				failovers = append(failovers, mc.Manager().Tick()...)
			}
			if len(failovers) != 1 || failovers[0].Node != kill {
				t.Fatalf("expected one failover of node %d, got %+v", kill, failovers)
			}
			slots, below := mc.Client().Ring().Slots(), 0
			for s := 0; s < slots; s++ {
				if len(mc.Manager().View().Replicas[s]) < 2 {
					below++
				}
			}
			got := readKeys(t, mc.Client(), 0, keys)
			var evicted uint64
			for i := 0; i < memNodes; i++ {
				evicted += mc.Node(i).Cache().Stats().Evictions
			}
			t.Logf("%d of %d slots below rf after failover; %d of %d keys read back, %d evicted",
				below, slots, got, keys, evicted)
			if below > 0 {
				t.Errorf("%d of %d slots have no follower with 2 nodes alive", below, slots)
			}
			if rep := failovers[0].BelowRF; rep != below {
				t.Errorf("failover reports %d slots below rf, the placement has %d", rep, below)
			}
			if g := reg.Gauge("membership.slots_below_rf").Value(); g != float64(below) {
				t.Errorf("membership.slots_below_rf reads %v, the placement has %d", g, below)
			}
			if missing := uint64(keys - got); missing > evicted {
				t.Errorf("%d keys missing but the nodes evicted only %d", missing, evicted)
			}
		})
	}
}

// TestJoinBoundedMovementAndDeterminism is the scale-out run: a fourth
// node joins a loaded 3-node cluster. The handoff must move at most
// ⌈slots/nodes⌉ slots, advance the view epoch, change the owner of
// exactly the moved slots, and keep every key readable; an identical rerun
// must plan a byte-identical handoff and view.
func TestJoinBoundedMovementAndDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("membership e2e drives loopback round trips")
	}
	run := func() (membership.Report, *wire.View) {
		mc, _ := startMemCluster(t, memNodes, membership.Config{ReplicationFactor: 2})
		writeKeys(t, mc.Client(), 0, memKeys)

		before := mc.Manager().View()
		rep, err := mc.Join()
		if err != nil {
			t.Fatal(err)
		}

		after := mc.Manager().View()
		bound := ceilDiv(len(after.Replicas), memNodes+1)
		t.Logf("join moved %d slots (bound %d), view %d -> %d", len(rep.Moves), bound, before.Epoch, after.Epoch)
		if len(rep.Moves) == 0 || len(rep.Moves) > bound {
			t.Fatalf("join moved %d slots, want 1..%d", len(rep.Moves), bound)
		}
		if after.Epoch <= before.Epoch || rep.Epoch != after.Epoch {
			t.Fatalf("join reports view %d; the view epoch went %d -> %d", rep.Epoch, before.Epoch, after.Epoch)
		}
		moved := make(map[int]bool)
		for _, mv := range rep.Moves {
			moved[mv.Slot] = true
			if mv.To != memNodes {
				t.Fatalf("join moved slot %d to node %d, not the joiner", mv.Slot, mv.To)
			}
		}
		for s := range after.Replicas {
			switch {
			case moved[s] && after.Owner(s) != memNodes:
				t.Fatalf("slot %d not owned by the joiner after the move", s)
			case !moved[s] && after.Owner(s) != before.Owner(s):
				t.Fatalf("unmoved slot %d changed owner: %d -> %d", s, before.Owner(s), after.Owner(s))
			}
		}

		if got := readKeys(t, mc.Client(), 0, memKeys); got != memKeys {
			t.Fatalf("scale-out lost %d of %d keys", memKeys-got, memKeys)
		}
		return rep, after
	}

	rep1, view1 := run()
	rep2, view2 := run()
	if fmt.Sprint(rep1) != fmt.Sprint(rep2) {
		t.Fatalf("join rerun planned a different handoff:\n%+v\n%+v", rep1, rep2)
	}
	if view1.Epoch != view2.Epoch || fmt.Sprint(view1.Replicas) != fmt.Sprint(view2.Replicas) {
		t.Fatalf("join rerun produced a different view:\n%d %v\n%d %v", view1.Epoch, view1.Replicas, view2.Epoch, view2.Replicas)
	}
}

// TestLeaveBoundedMovement: a graceful leave migrates exactly the
// departing node's slots (at most ⌈slots/nodes⌉ on a balanced ring) and no
// key becomes unreachable.
func TestLeaveBoundedMovement(t *testing.T) {
	if testing.Short() {
		t.Skip("membership e2e drives loopback round trips")
	}
	mc, _ := startMemCluster(t, memNodes, membership.Config{ReplicationFactor: 2})
	writeKeys(t, mc.Client(), 0, memKeys)

	const leaving = 2
	ownedBy := func(node int) (n int) {
		for _, o := range mc.Manager().View().Owners() {
			if o == node {
				n++
			}
		}
		return n
	}
	owned := ownedBy(leaving)
	rep, err := mc.Manager().Leave(leaving)
	if err != nil {
		t.Fatal(err)
	}
	bound := ceilDiv(mc.Client().Ring().Slots(), memNodes)
	if len(rep.Moves) != owned || len(rep.Moves) > bound {
		t.Fatalf("leave moved %d slots; node owned %d, bound %d", len(rep.Moves), owned, bound)
	}
	if n := ownedBy(leaving); n != 0 {
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

// TestTickSuspicionEdges pins the suspicion count Tick keeps per node: a
// node fails over only after SuspectAfter unanswered probes in a row, an
// answered probe resets the count, and a node fails over exactly once.
func TestTickSuspicionEdges(t *testing.T) {
	if testing.Short() {
		t.Skip("membership e2e drives loopback round trips")
	}
	mc, _ := startMemCluster(t, memNodes, membership.Config{ReplicationFactor: 2, SuspectAfter: 3})
	mgr := mc.Manager()
	ticks := func(n int) (reports []membership.Report) {
		for i := 0; i < n; i++ {
			reports = append(reports, mgr.Tick()...)
		}
		return reports
	}

	const kill = 1
	addr := mc.Addrs()[kill]
	if err := mc.Kill(kill); err != nil {
		t.Fatal(err)
	}
	if reps := ticks(2); len(reps) != 0 {
		t.Fatalf("failover after 2 of 3 misses: %+v", reps)
	}
	// A node answering on the same address resets the count.
	back, err := cluster.StartNode(kill, cluster.NodeConfig{
		Addr:  addr,
		Cache: stemcache.Config{Capacity: memCapacity, Shards: 2, Ways: memWays},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { back.Close() })
	if reps := ticks(1); len(reps) != 0 {
		t.Fatalf("failover on an answered probe: %+v", reps)
	}
	back.Close()
	if reps := ticks(2); len(reps) != 0 {
		t.Fatalf("failover after 2 misses following an answered probe: %+v", reps)
	}
	if reps := ticks(1); len(reps) != 1 || reps[0].Node != kill {
		t.Fatalf("third consecutive miss: reports %+v, want one failover of node %d", reps, kill)
	}
	if reps := ticks(3); len(reps) != 0 {
		t.Fatalf("node failed over twice: %+v", reps)
	}
	if st := mgr.View().Members[kill].State; st != wire.MemberDead {
		t.Fatalf("node %d state %v after failover, want dead", kill, st)
	}
}

// TestPartialJoinCommitsWhatMoved: a join whose handoff fails partway must
// still commit the slots that did move — re-place their replicas and push
// the view to every member, the newcomer included — or the newcomer serves
// those slots with no follower and its death loses every write acked there.
func TestPartialJoinCommitsWhatMoved(t *testing.T) {
	if testing.Short() {
		t.Skip("membership e2e drives loopback round trips")
	}
	nodeCfg := cluster.NodeConfig{Cache: stemcache.Config{Capacity: memCapacity, Shards: 2, Ways: memWays}}
	rig, err := membership.StartRig(memNodes, nodeCfg,
		cluster.Config{VNodes: memVNodes, Seed: memSeed, Client: memTpl()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rig.Close)
	cl := rig.Client()
	for i := 0; i < memNodes; i++ {
		a := membership.NewAgent(i, cl.Ring(), rig.Node(i).Server(), memTpl())
		t.Cleanup(func() { a.Close() })
	}
	// The lister covers the rig's nodes and the newcomer, and fails once:
	// on the second listing after it is armed, the join's second handoff.
	var joined *cluster.Node
	armed, listings := false, 0
	lister := func(n int) ([]string, error) {
		if armed {
			if listings++; listings == 2 {
				return nil, errors.New("injected listing failure")
			}
		}
		if n == memNodes {
			return joined.Keys(), nil
		}
		return rig.Keys(n)
	}
	mgr, err := membership.New(cl, lister, rig.Addrs(),
		membership.Config{ReplicationFactor: 2, SuspectAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	writeKeys(t, cl, 0, memKeys)

	const joiner = memNodes
	node, err := cluster.StartNode(joiner, nodeCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	joined = node
	agent := membership.NewAgent(joiner, cl.Ring(), node.Server(), memTpl())
	t.Cleanup(func() { agent.Close() })

	armed = true
	rep, err := mgr.Join(node.Addr())
	if err == nil || len(rep.Moves) != 1 {
		t.Fatalf("join: %d moves, err %v; want 1 move and the injected failure", len(rep.Moves), err)
	}
	moved := rep.Moves[0].Slot
	if reps := mgr.View().Replicas[moved]; len(reps) == 0 || reps[0] != joiner {
		t.Errorf("replicas of moved slot %d = %v, want node %d first", moved, reps, joiner)
	}
	if got, want := agent.Epoch(), mgr.View().Epoch; got != want {
		t.Errorf("newcomer's agent holds view %d, manager %d", got, want)
	}

	// 20 acked writes on the moved slot, then the newcomer dies.
	const extra = 20
	var keys []string
	for i := memKeys; len(keys) < extra; i++ {
		if k := memKey(i); cl.Ring().SlotOf(k, cl.Ring().Slots()) == moved {
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		if err := cl.Set(k, []byte(k)); err != nil {
			t.Fatalf("set %q: %v", k, err)
		}
	}
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		mgr.Tick()
	}
	lost := 0
	for _, k := range keys {
		v, ok, err := cl.Get(k)
		if err != nil {
			t.Fatalf("get %q: %v", k, err)
		}
		if !ok || string(v) != k {
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d acked writes on moved slot %d lost with the newcomer", lost, extra, moved)
	}
	if got := readKeys(t, cl, 0, memKeys); got != memKeys {
		t.Fatalf("lost %d of %d earlier keys", memKeys-got, memKeys)
	}
}

// TestMoveOntoFollowerKeepsAckedWrites: a move of a slot onto its own
// follower must re-place the slot's replicas, or the old owner — whose copy
// the move deleted — stays the follower of record and the next failover
// promotes it with the slot's pre-move keys gone. RF=2: write, move the
// fullest slot onto its follower through the one executor, write more,
// kill the new owner, fail over, and read every acked write back. On two
// nodes placement must pick the old owner again as the follower (on three
// the seeded run picks it too), and the commit's backfill has to refill it.
func TestMoveOntoFollowerKeepsAckedWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("membership e2e drives loopback round trips")
	}
	for _, nodes := range []int{3, 2} {
		t.Run(fmt.Sprintf("%dnodes", nodes), func(t *testing.T) {
			mc, _ := startMemCluster(t, nodes, membership.Config{ReplicationFactor: 2, SuspectAfter: 2})
			writeKeys(t, mc.Client(), 0, memKeys)

			ring := mc.Client().Ring()
			perSlot := make([]int, ring.Slots())
			for i := 0; i < memKeys; i++ {
				perSlot[ring.SlotOf(memKey(i), ring.Slots())]++
			}
			slot := -1
			for s := range perSlot {
				if len(mc.Manager().View().Replicas[s]) == 2 && (slot < 0 || perSlot[s] > perSlot[slot]) {
					slot = s
				}
			}
			if slot < 0 {
				t.Fatal("no slot has a follower")
			}
			reps := mc.Manager().View().Replicas[slot]
			from, to := reps[0], reps[1]

			viewBefore := mc.Manager().View().Epoch
			rep, err := mc.Manager().ApplyMoves(cluster.Move{Slot: slot, From: from, To: to})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Moves) != 1 || rep.Moves[0].Keys != perSlot[slot] || rep.Epoch != viewBefore+1 {
				t.Fatalf("move report %+v: want one move of %d keys and view %d", rep, perSlot[slot], viewBefore+1)
			}
			if got := mc.Manager().View().Replicas[slot]; got[0] != to {
				t.Fatalf("slot %d replicas %v after the move, want node %d first", slot, got, to)
			}
			t.Logf("slot %d (%d keys) moved %d → %d; replicas now %v, %d keys backfilled",
				slot, perSlot[slot], from, to, mc.Manager().View().Replicas[slot], rep.ReplicaKeys)

			writeKeys(t, mc.Client(), memKeys, memKeys+100)
			if err := mc.Kill(to); err != nil {
				t.Fatal(err)
			}
			var failovers []membership.Report
			for i := 0; i < 4 && len(failovers) == 0; i++ {
				failovers = append(failovers, mc.Manager().Tick()...)
			}
			if len(failovers) != 1 || failovers[0].Node != to {
				t.Fatalf("expected one failover of node %d, got %+v", to, failovers)
			}
			if got := readKeys(t, mc.Client(), 0, memKeys+100); got != memKeys+100 {
				t.Fatalf("lost %d of %d acked writes across a move and failover", memKeys+100-got, memKeys+100)
			}
		})
	}
}

// TestManagerValidation pins constructor errors.
func TestManagerValidation(t *testing.T) {
	if _, err := membership.New(nil, nil, nil, membership.Config{}); err == nil {
		t.Fatal("nil client accepted")
	}
}
