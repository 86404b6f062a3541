package membership_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/membership"
	"repro/internal/stemcache"
	"repro/internal/wire"
)

// externalClient builds a routing client from the rig's first memNodes
// addresses and the seed alone, the way a client in another process would:
// it shares no state with the rig and learns every view — and every node
// that joined — over the wire.
func externalClient(t *testing.T, mc *membership.Rig, vnodes int, seed uint64) *cluster.Client {
	t.Helper()
	return seededClient(t, mc.Addrs()[:memNodes], vnodes, seed)
}

// seededClient builds a routing client from the seed list addrs.
func seededClient(t *testing.T, addrs []string, vnodes int, seed uint64) *cluster.Client {
	t.Helper()
	cl, err := cluster.NewClient(cluster.Config{Addrs: addrs, VNodes: vnodes, Seed: seed, Client: memTpl()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// writeReadAll writes and reads back every key of memKeys through cl and
// returns the first failure.
func writeReadAll(cl *cluster.Client) error {
	for i := 0; i < memKeys; i++ {
		if err := cl.Set(memKey(i), memVal(i)); err != nil {
			return fmt.Errorf("set %q: %w", memKey(i), err)
		}
	}
	for i := 0; i < memKeys; i++ {
		if v, found, err := cl.Get(memKey(i)); err != nil || !found || string(v) != string(memVal(i)) {
			return fmt.Errorf("get %q: %q (found %v, err %v), want %q", memKey(i), v, found, err, memVal(i))
		}
	}
	return nil
}

// TestSeedListReachesJoinedCluster: the addresses a client is built from
// are a seed list. After a join, a client given only the joiner's address,
// and one given all four addresses with the default 16 vnodes against the
// rig's 4, each write and read back every key: the first MOVED or VIEW
// answer brings the cluster's members and slot count.
func TestSeedListReachesJoinedCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("membership e2e drives loopback round trips")
	}
	mc, _ := startMemCluster(t, memNodes, membership.Config{ReplicationFactor: 2})
	if _, err := mc.Join(); err != nil {
		t.Fatal(err)
	}
	addrs := mc.Addrs()
	for name, cl := range map[string]*cluster.Client{
		"the joiner's address alone": seededClient(t, addrs[memNodes:], memVNodes, memSeed),
		"all four, default vnodes":   seededClient(t, addrs, 0, memSeed),
	} {
		if err := writeReadAll(cl); err != nil {
			t.Errorf("a client seeded with %s: %v", name, err)
			continue
		}
		if v, want := cl.View(), mc.Manager().View(); v.Epoch != want.Epoch || len(v.Members) != memNodes+1 || len(v.Replicas) != len(want.Replicas) {
			t.Errorf("a client seeded with %s holds view %d with %d members and %d slots; want view %d, %d members, %d slots",
				name, v.Epoch, len(v.Members), len(v.Replicas), want.Epoch, memNodes+1, len(want.Replicas))
		}
	}
}

// failOver ticks the manager until it fails node over.
func failOver(t *testing.T, mc *membership.Rig, node int) {
	t.Helper()
	for i := 0; i < 4; i++ {
		for _, rep := range mc.Manager().Tick() {
			if rep.Node == node {
				return
			}
		}
	}
	t.Fatalf("node %d never failed over", node)
}

// TestExternalClientFollowsFailoverAndJoin: a client outside the rig
// writes rounds over a keyspace while node 1 is killed and failed over and
// a fourth node joins. Every write is eventually acked — one to the dead
// owner waits for the failover's view — and afterwards every key reads
// back its last acked value, through that client and through a fresh one,
// or misses within the nodes' eviction counts.
func TestExternalClientFollowsFailoverAndJoin(t *testing.T) {
	if testing.Short() {
		t.Skip("membership e2e drives loopback round trips")
	}
	mc, _ := startMemCluster(t, memNodes, membership.Config{ReplicationFactor: 2, SuspectAfter: 2})
	cl := externalClient(t, mc, memVNodes, memSeed)

	const keys = 200
	last := make([]string, keys) // last acked value per key
	var mu sync.Mutex
	acked, refused := 0, 0
	stop, done := make(chan struct{}), make(chan struct{})
	ackedAtLeast := func(n int) {
		for {
			mu.Lock()
			a := acked
			mu.Unlock()
			if a >= n {
				return
			}
			select {
			case <-done:
				t.Fatalf("the writer stopped after %d acks", a)
			case <-time.After(time.Millisecond):
			}
		}
	}
	go func() {
		defer close(done)
		for round := 0; ; round++ {
			for i := 0; i < keys; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := fmt.Sprintf("r%d-%d", round, i)
				var err error
				for attempt := 0; attempt < 5; attempt++ {
					if err = cl.Set(memKey(i), []byte(v)); err == nil {
						break
					}
				}
				mu.Lock()
				if err == nil {
					last[i] = v
					acked++
				} else {
					refused++
					t.Errorf("set %q never acked: %v", memKey(i), err)
				}
				mu.Unlock()
			}
		}
	}()

	ackedAtLeast(keys)
	if err := mc.Kill(1); err != nil {
		t.Fatal(err)
	}
	failOver(t, mc, 1)
	ackedAtLeast(2 * keys)
	rep, err := mc.Join()
	if err != nil {
		t.Fatal(err)
	}
	ackedAtLeast(3*keys + keys/2)
	close(stop)
	<-done

	var evicted uint64
	for i := 0; i < memNodes+1; i++ {
		if i != 1 {
			evicted += mc.Node(i).Cache().Stats().Evictions
		}
	}
	fresh := externalClient(t, mc, memVNodes, memSeed)
	for name, c := range map[string]*cluster.Client{"writer": cl, "fresh": fresh} {
		missing := 0
		for i, want := range last {
			v, found, err := c.Get(memKey(i))
			switch {
			case err != nil:
				t.Fatalf("%s client: get %q: %v", name, memKey(i), err)
			case !found:
				missing++
			case string(v) != want:
				t.Errorf("%s client: %q reads %q, last acked %q", name, memKey(i), v, want)
			}
		}
		if uint64(missing) > evicted {
			t.Errorf("%s client: %d acked keys missing, the nodes evicted %d", name, missing, evicted)
		}
	}
	t.Logf("%d writes acked, %d refused; join moved %d slots at view %d; the writer holds view %d",
		acked, refused, len(rep.Moves), rep.Epoch, cl.View().Epoch)
}

// TestStaleViewCannotResurrectOldValue: a key is written (v1), a join
// moves its slot, and a client that has not seen the join writes v2. The
// old owner holds the view that moved the slot, so it acks no write there:
// the stale client is answered MOVED, follows, and every client — stale,
// the rig's, one that read before the join, and a fresh one — reads v2.
func TestStaleViewCannotResurrectOldValue(t *testing.T) {
	if testing.Short() {
		t.Skip("membership e2e drives loopback round trips")
	}
	mc, _ := startMemCluster(t, memNodes, membership.Config{ReplicationFactor: 2})
	stale := externalClient(t, mc, memVNodes, memSeed)
	reader := externalClient(t, mc, memVNodes, memSeed)
	for i := 0; i < memKeys; i++ {
		if err := stale.Set(memKey(i), []byte("v1")); err != nil {
			t.Fatal(err)
		}
		if v, _, err := reader.Get(memKey(i)); err != nil || string(v) != "v1" {
			t.Fatalf("get %q before the join: %q, %v", memKey(i), v, err)
		}
	}
	epoch := stale.View().Epoch

	rep, err := mc.Join()
	if err != nil {
		t.Fatal(err)
	}
	moved := map[int]bool{}
	for _, mv := range rep.Moves {
		moved[mv.Slot] = true
	}
	var keys []string
	for i := 0; i < memKeys; i++ {
		if k := memKey(i); moved[stale.Ring().SlotOf(k, stale.Ring().Slots())] {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 || stale.View().Epoch != epoch {
		t.Fatalf("precondition: %d keys on moved slots; the stale client holds view %d, had %d", len(keys), stale.View().Epoch, epoch)
	}
	for _, k := range keys {
		if err := stale.Set(k, []byte("v2")); err != nil {
			t.Fatalf("stale set %q: %v", k, err)
		}
	}
	fresh := externalClient(t, mc, memVNodes, memSeed)
	for name, c := range map[string]*cluster.Client{"stale": stale, "reader": reader, "rig": mc.Client(), "fresh": fresh} {
		for _, k := range keys {
			if v, found, err := c.Get(k); err != nil || !found || string(v) != "v2" {
				t.Errorf("%s client: %q reads %q (found %v, err %v), want v2", name, k, v, found, err)
			}
		}
	}
	t.Logf("%d keys on %d moved slots rewritten through a client at view %d; the manager is at %d",
		len(keys), len(rep.Moves), epoch, mc.Manager().View().Epoch)
}

// TestStatsAllSkipsDeadMember: once a dead node is failed over, a client
// that never saw it die still pings the cluster and gathers STATS: the
// view it fetches marks the node dead, and its entry is nil.
func TestStatsAllSkipsDeadMember(t *testing.T) {
	if testing.Short() {
		t.Skip("membership e2e drives loopback round trips")
	}
	mc, _ := startMemCluster(t, memNodes, membership.Config{ReplicationFactor: 2, SuspectAfter: 2})
	cl := externalClient(t, mc, memVNodes, memSeed)
	const kill = 1
	if err := mc.Kill(kill); err != nil {
		t.Fatal(err)
	}
	if err := cl.Ping(); err == nil || !strings.Contains(err.Error(), "node 1") {
		t.Fatalf("ping before the failover: %v, want node 1's error", err)
	}
	failOver(t, mc, kill)
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping after the failover: %v", err)
	}
	raws, err := cl.StatsAll()
	if err != nil {
		t.Fatal(err)
	}
	for n, raw := range raws {
		if (raw == nil) != (n == kill) {
			t.Errorf("node %d STATS %q; want nil exactly for the dead node %d", n, raw, kill)
		}
	}
}

// TestClientFollowsSlotCountBoundsWrongSeed: a client's vnodes shape only
// the epoch-0 view it starts from — one built with 8 against the rig's 16
// adopts the cluster's slot count from the first MOVED answer and serves
// every key — while another seed routes keys to nodes that keep answering
// MOVED, which one operation follows only so far.
func TestClientFollowsSlotCountBoundsWrongSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("membership e2e drives loopback round trips")
	}
	rig, err := membership.StartRig(memNodes,
		cluster.NodeConfig{Cache: stemcache.Config{Capacity: memCapacity, Shards: 2, Ways: memWays}},
		cluster.Config{VNodes: 16, Seed: memSeed, Client: memTpl()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rig.Close)
	if err := rig.Bootstrap(membership.Config{ReplicationFactor: 2}); err != nil {
		t.Fatal(err)
	}
	if err := writeReadAll(externalClient(t, rig, 8, memSeed)); err != nil {
		t.Errorf("a client with 8 vnodes against 16: %v", err)
	}
	if err := writeReadAll(externalClient(t, rig, 16, memSeed+1)); err == nil || !strings.Contains(err.Error(), "still moved after 8 MOVED answers") {
		t.Errorf("a client with another seed: %v, want a bounded MOVED chase", err)
	}
}

// TestAgentRefusesOtherSlotCount: a cluster's slot count is fixed at
// bootstrap. A pushed view with another slot count would move every key a
// node holds to another slot, so the agent refuses it and keeps serving
// under the view it holds.
func TestAgentRefusesOtherSlotCount(t *testing.T) {
	if testing.Short() {
		t.Skip("membership e2e drives loopback round trips")
	}
	mc, _ := startMemCluster(t, memNodes, membership.Config{ReplicationFactor: 2})
	held := mc.Manager().View()
	wide, err := cluster.NewRing(memNodes, 2*memVNodes, memSeed)
	if err != nil {
		t.Fatal(err)
	}
	w := *wide.InitialView(mc.Addrs())
	w.Epoch = held.Epoch + 1
	if _, err := mc.Client().NodeClient(0).View(w); err == nil || !strings.Contains(err.Error(), "24 slots, the held view 12") {
		t.Fatalf("a 24-slot view pushed over a 12-slot one: %v, want it refused naming both counts", err)
	}
	if err := writeReadAll(mc.Client()); err != nil {
		t.Fatalf("after the refused push: %v", err)
	}
	if v, err := mc.Client().NodeClient(0).View(wire.View{}); err != nil || v.Epoch != held.Epoch {
		t.Fatalf("node 0 holds view %d (err %v), want %d", v.Epoch, err, held.Epoch)
	}
}

// wideVNodes is the slots per node of the view-size rig: 3 nodes × 16 is
// 48 slots, each with 2 replicas at RF 2.
const wideVNodes = 16

// startWideRig boots memNodes nodes at wideVNodes slots per node and
// bootstraps them at RF 2.
func startWideRig(t *testing.T) *membership.Rig {
	t.Helper()
	rig, err := membership.StartRig(memNodes,
		cluster.NodeConfig{Cache: stemcache.Config{Capacity: memCapacity, Shards: 2, Ways: memWays}},
		cluster.Config{VNodes: wideVNodes, Seed: memSeed, Client: memTpl()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rig.Close)
	if err := rig.Bootstrap(membership.Config{ReplicationFactor: 2}); err != nil {
		t.Fatal(err)
	}
	return rig
}

// TestViewFrameBytes pins the size of the VIEW answer a node of the wide
// rig sends, addresses aside: the 12-byte header, the epoch (8), the member
// count (2), per member its state and address length (3), the slot count
// (2), and per slot its replica count and two uint32 replicas (9), each
// index written once. Wire v6 also sent every member's id and every slot's
// number, 4 bytes each: 669 bytes, 204 more.
func TestViewFrameBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("membership e2e drives loopback round trips")
	}
	rig := startWideRig(t)
	held, err := rig.Client().NodeClient(0).View(wire.View{})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := wire.AppendResponse(nil, &wire.Response{Op: wire.OpView, View: held}, wire.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	addrs := 0
	for _, m := range held.Members {
		addrs += len(m.Addr)
	}
	const want = 12 + 8 + 2 + memNodes*3 + 2 + memNodes*wideVNodes*9 // 465
	if got := len(frame) - addrs; got != want {
		t.Fatalf("VIEW answer of %d members and %d slots is %d bytes besides %d of addresses, want %d",
			len(held.Members), len(held.Replicas), got, addrs, want)
	}
}
