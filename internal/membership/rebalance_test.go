package membership_test

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/membership"
	"repro/internal/obs"
	"repro/internal/stemcache"
	"repro/internal/workloads"
)

// The hotspot-shift A/B: a 3-node ring driven by a Zipf hot set that jumps
// to a fresh key partition mid-run. Each partition hashes to a different
// slot mix, so whichever node owns the biggest share of the current
// partition is pushed past its capacity (its sets' SC_S counters saturate
// → the node reads as a taker) while the others idle. The STEM run lets
// the manager's demand rounds move slots; the static run never rebalances.
// Both runs are one membership rig at replication factor 1, so the agents
// fan writes out to no one and read-repair finds no peer: the comparison
// is the ring's alone, and everything is seeded, so it is exact.
const (
	e2eNodes      = 3
	e2eVNodes     = 2   // few, fat slots: imbalance is the point
	e2eCapacity   = 256 // per node (2 shards × 32 sets × 4 ways)
	e2eSeed       = 21  // cluster seed: ring placement + node cache seeds
	e2eWorkSeed   = 9   // workload seed
	e2eStreamCap  = 960 // hot set = 720 keys ≈ 0.94× cluster capacity
	e2ePartitions = 3   // hotspot shifts seen by the run
	e2eEpochOps   = 512 // driver ops between demand rounds
	e2eMaxMoves   = 2   // move bound per round
)

// The pinned outcome of both runs: the client-side hit counts over the
// whole stream, and the rebalanced run's round and move counts. Every input
// is seeded, so any change to routing, the planner or the nodes' caches that
// moves one of these numbers is a behaviour change, not noise.
const (
	e2eGets       = 17280
	e2eStaticHits = 14634
	e2eRebalHits  = 14726
	e2eEpochs     = 33
	e2eMoves      = 2
)

// startHotspotRig starts the hotspot-shift A/B's rig: e2eNodes nodes with
// narrow, slowly decaying counters, bootstrapped at replication factor 1
// with the thresholds matched to the workload. observer may be nil.
func startHotspotRig(t *testing.T, observer obs.Observer) *membership.Rig {
	t.Helper()
	rig, err := membership.StartRig(e2eNodes,
		cluster.NodeConfig{Cache: stemcache.Config{
			Capacity: e2eCapacity, Shards: 2, Ways: 4,
			// Narrow counters with slow decay: the node-level demand
			// signal responds within one round of a hotspot landing.
			CounterBits: 3, SpatialShift: 4,
		}},
		cluster.Config{VNodes: e2eVNodes, Seed: e2eSeed})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rig.Close)
	if err := rig.Bootstrap(membership.Config{
		ReplicationFactor: 1,
		MaxMovesPerEpoch:  e2eMaxMoves,
		// Thresholds matched to the workload's measured signal: the
		// overloaded nodes' demand scores ride ~0.15-0.27, the idle node's
		// stays ~0.
		TakerFrac: 0.12, GiverFrac: 0.05,
		Observer: observer,
	}); err != nil {
		t.Fatal(err)
	}
	return rig
}

// runHotspotShift drives one full cluster run and returns the client-side
// hit tally plus every round's report (empty for the static configuration).
func runHotspotShift(t *testing.T, rebalance bool) (gets, hits int, reports []membership.Report) {
	t.Helper()
	rig := startHotspotRig(t, nil)
	cl := rig.Client()

	next, err := workloads.NewKeyStream("hotspot-shift", e2eStreamCap, e2eWorkSeed)
	if err != nil {
		t.Fatal(err)
	}
	ops := e2ePartitions * workloads.HotspotShiftEvery(e2eStreamCap)
	for i := 0; i < ops; i++ {
		if rebalance && i > 0 && i%e2eEpochOps == 0 {
			report, err := rig.Manager().Rebalance()
			if err != nil {
				t.Fatalf("round at op %d: %v", i, err)
			}
			reports = append(reports, report)
		}
		gets++
		if getSetOnMiss(t, cl, next()) {
			hits++
		}
	}
	return gets, hits, reports
}

// getSetOnMiss reads k through the routing client and stores it on a
// miss, reporting whether the read hit.
func getSetOnMiss(t *testing.T, cl *cluster.Client, k string) bool {
	t.Helper()
	_, found, err := cl.Get(k)
	if err != nil {
		t.Fatalf("get %q: %v", k, err)
	}
	if !found {
		if err := cl.Set(k, []byte("x")); err != nil {
			t.Fatalf("set %q: %v", k, err)
		}
	}
	return found
}

// TestRebalancedRingBeatsStatic pins the tentpole claim: under the
// hotspot-shift workload, the STEM-rebalanced ring's aggregate client hit
// rate strictly beats the static ring's, with every round's moves inside
// the configured bound — and the rebalanced run is deterministic. Both
// runs' counts are pinned exactly (e2eStaticHits, e2eRebalHits, e2eEpochs,
// e2eMoves).
func TestRebalancedRingBeatsStatic(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster e2e drives ~41k loopback round trips")
	}
	sGets, sHits, sReports := runHotspotShift(t, false)
	if len(sReports) != 0 {
		t.Fatalf("static run produced %d round reports", len(sReports))
	}
	rGets, rHits, rReports := runHotspotShift(t, true)
	if sGets != rGets {
		t.Fatalf("runs diverged in op count: %d vs %d", sGets, rGets)
	}

	sRate := float64(sHits) / float64(sGets)
	rRate := float64(rHits) / float64(rGets)
	t.Logf("static: %d/%d = %.4f; rebalanced: %d/%d = %.4f",
		sHits, sGets, sRate, rHits, rGets, rRate)

	if rHits <= sHits {
		t.Fatalf("rebalanced ring (%.4f) does not beat static (%.4f)", rRate, sRate)
	}
	if sGets != e2eGets || sHits != e2eStaticHits || rHits != e2eRebalHits {
		t.Fatalf("hits static %d/%d, rebalanced %d/%d; pinned %d and %d of %d",
			sHits, sGets, rHits, rGets, e2eStaticHits, e2eRebalHits, e2eGets)
	}

	moves := 0
	for _, rep := range rReports {
		if len(rep.Moves) > e2eMaxMoves {
			t.Fatalf("round %d moved %d slots, bound is %d", rep.Round, len(rep.Moves), e2eMaxMoves)
		}
		moves += len(rep.Moves)
	}
	t.Logf("rebalanced run: %d rounds, %d moves", len(rReports), moves)
	if len(rReports) != e2eEpochs || moves != e2eMoves {
		t.Fatalf("rebalanced run: %d rounds, %d moves; pinned %d and %d",
			len(rReports), moves, e2eEpochs, e2eMoves)
	}

	// Determinism: an identical rebalanced run reproduces hits and moves.
	rGets2, rHits2, rReports2 := runHotspotShift(t, true)
	if rGets2 != rGets || rHits2 != rHits {
		t.Fatalf("rebalanced rerun diverged: %d/%d vs %d/%d", rHits2, rGets2, rHits, rGets)
	}
	if fmt.Sprint(rReports2) != fmt.Sprint(rReports) {
		t.Fatal("rebalanced rerun planned different moves")
	}
}

// TestRoundPullsFreshDemand: a demand round decides on each member's
// demand as it stands when the round runs, not on what an earlier
// heartbeat brought back. One Tick, then enough hotspot traffic to move
// the nodes' SC_S counters, then one round: every member's EvNodeDemand
// must carry the taker and giver counts its cache reports right before the
// round.
func TestRoundPullsFreshDemand(t *testing.T) {
	var events []obs.Event
	rig := startHotspotRig(t, obs.ObserverFunc(func(e obs.Event) {
		if e.Type == obs.EvNodeDemand {
			events = append(events, e)
		}
	}))
	if reps := rig.Manager().Tick(); len(reps) != 0 {
		t.Fatalf("Tick on a healthy rig failed over: %+v", reps)
	}
	next, err := workloads.NewKeyStream("hotspot-shift", e2eStreamCap, e2eWorkSeed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		getSetOnMiss(t, rig.Client(), next())
	}

	want := make([]stemcache.Demand, e2eNodes)
	moved := false
	for i := range want {
		want[i] = rig.Node(i).Cache().Demand()
		moved = moved || want[i].GiverSets != want[i].Sets
	}
	if !moved {
		t.Fatal("precondition: every node still reports all sets as givers; the traffic moved no counter")
	}
	if _, err := rig.Manager().Rebalance(); err != nil {
		t.Fatal(err)
	}
	if len(events) != e2eNodes {
		t.Fatalf("observed %d demand events, want %d", len(events), e2eNodes)
	}
	for _, e := range events {
		if w := want[e.Set]; e.ScS != w.TakerSets || e.ScT != w.GiverSets {
			t.Errorf("node %d classified on %d takers / %d givers; its cache reads %d / %d",
				e.Set, e.ScS, e.ScT, w.TakerSets, w.GiverSets)
		}
	}
}

// TestRebalanceMoveKeepsAckedWrites: a demand round that moves a slot onto
// its own follower must re-place the slot's replicas, or the old owner —
// whose copy the move deleted — stays the follower of record and the next
// failover promotes it with the slot's pre-move keys gone. RF=2: write,
// move the fullest slot onto its follower, write more, kill the new owner,
// fail over, and read every acked write back. On three nodes placement
// picks the third node as the new follower; on two it must pick the old
// owner again, which the commit's backfill has to refill.
func TestRebalanceMoveKeepsAckedWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("membership e2e drives loopback round trips")
	}
	for _, nodes := range []int{3, 2} {
		t.Run(fmt.Sprintf("%dnodes", nodes), func(t *testing.T) {
			var events []obs.Event
			mc := startMemCluster(t, nodes, membership.Config{
				ReplicationFactor: 2, SuspectAfter: 2,
				Observer: obs.ObserverFunc(func(e obs.Event) { events = append(events, e) }),
			})
			writeKeys(t, mc.Client(), 0, memKeys)

			ring := mc.Client().Ring()
			perSlot := make([]int, ring.Slots())
			for i := 0; i < memKeys; i++ {
				perSlot[ring.SlotOfKey(memKey(i))]++
			}
			slot := -1
			for s := range perSlot {
				if len(mc.Manager().ReplicasOf(s)) == 2 && (slot < 0 || perSlot[s] > perSlot[slot]) {
					slot = s
				}
			}
			if slot < 0 {
				t.Fatal("no slot has a follower")
			}
			reps := mc.Manager().ReplicasOf(slot)
			from, to := reps[0], reps[1]

			viewBefore := mc.Manager().Epoch()
			events = events[:0]
			rep, err := mc.Manager().RebalanceWith(cluster.Move{Slot: slot, From: from, To: to})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Moves) != 1 || rep.Moves[0].Keys != perSlot[slot] || rep.Epoch != viewBefore+1 {
				t.Fatalf("round report %+v: want one move of %d keys and view %d", rep, perSlot[slot], viewBefore+1)
			}
			if got := mc.Manager().ReplicasOf(slot); got[0] != to {
				t.Fatalf("slot %d replicas %v after the move, want node %d first", slot, got, to)
			}
			var migrations []obs.Event
			for _, e := range events {
				if e.Type == obs.EvSlotMigrate {
					migrations = append(migrations, e)
				}
			}
			if len(migrations) != 1 || migrations[0].Tick != rep.Round || migrations[0].Set != slot ||
				migrations[0].ScS != from || migrations[0].Partner != to || migrations[0].Life != uint64(perSlot[slot]) {
				t.Fatalf("migration events %+v, want slot %d %d→%d with %d keys at round %d",
					migrations, slot, from, to, perSlot[slot], rep.Round)
			}
			t.Logf("slot %d (%d keys) moved %d → %d; replicas now %v, %d keys backfilled",
				slot, perSlot[slot], from, to, mc.Manager().ReplicasOf(slot), rep.ReplicaKeys)

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
				t.Fatalf("lost %d of %d acked writes across a rebalance move and failover", memKeys+100-got, memKeys+100)
			}
		})
	}
}

// TestEpochQuietCluster: fresh caches are all givers (no taker nodes), so
// a round polls every member, classifies each as a giver, plans nothing
// and commits nothing.
func TestEpochQuietCluster(t *testing.T) {
	var events []obs.Event
	mc := startMemCluster(t, memNodes, membership.Config{
		ReplicationFactor: 1,
		Observer:          obs.ObserverFunc(func(e obs.Event) { events = append(events, e) }),
	})
	events = events[:0]
	rep, err := mc.Manager().Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Round != 1 || len(rep.Moves) != 0 || rep.Epoch != 0 || mc.Manager().Epoch() != 1 {
		t.Fatalf("report %+v, view %d: want round 1, no moves, no commit past view 1", rep, mc.Manager().Epoch())
	}
	if len(events) != memNodes {
		t.Fatalf("observed %d events, want one demand event per node", len(events))
	}
	for i, e := range events {
		if e.Type != obs.EvNodeDemand || e.Tick != 1 || e.Set != i || e.Class != "giver" || e.ScS != 0 {
			t.Fatalf("event %d = %+v, want node %d a fresh giver at round 1", i, e, i)
		}
	}
}
