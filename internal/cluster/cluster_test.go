package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/stemcache"
	"repro/internal/wire"
)

// startCluster spins up n in-process nodes plus a routing client with few
// vnodes (lumpy on purpose — tests want observable imbalance).
func startCluster(t *testing.T, n, vnodes int, capacity int) ([]*Node, *Client) {
	t.Helper()
	nodes := make([]*Node, n)
	addrs := make([]string, n)
	for i := range nodes {
		node, err := StartNode(i, NodeConfig{
			Cache: stemcache.Config{Capacity: capacity, Shards: 2, Ways: 4, Seed: NodeSeed(7, i)},
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		addrs[i] = node.Addr()
		t.Cleanup(func() { node.Close() })
	}
	cl, err := NewClient(Config{Addrs: addrs, VNodes: vnodes, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return nodes, cl
}

func TestClientRoutesToRingOwner(t *testing.T) {
	nodes, cl := startCluster(t, 3, 4, 1024)

	const n = 300
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("route-%d", i)
		if err := cl.Set(keys[i], []byte(keys[i])); err != nil {
			t.Fatal(err)
		}
	}

	// Every key must reside on exactly the node the ring names.
	resident := make([]map[string]bool, len(nodes))
	for i, node := range nodes {
		resident[i] = map[string]bool{}
		for _, k := range node.Keys() {
			resident[i][k] = true
		}
	}
	for _, k := range keys {
		owner, _ := cl.Ring().Lookup(k)
		for i := range nodes {
			if resident[i][k] != (i == owner) {
				t.Fatalf("key %q: resident on node %d = %v, ring owner is %d",
					k, i, resident[i][k], owner)
			}
		}
	}

	// The slot load counters account for every routed operation.
	var total uint64
	for _, load := range cl.TakeSlotLoads() {
		total += load
	}
	if total != n {
		t.Fatalf("slot loads sum to %d, want %d", total, n)
	}
	// And the counters reset on take.
	for s, load := range cl.TakeSlotLoads() {
		if load != 0 {
			t.Fatalf("slot %d load %d after take, want 0", s, load)
		}
	}

	// Cluster-wide MGet reassembles in key order across the split.
	values, found, err := cl.MGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if !found[i] || string(values[i]) != k {
			t.Fatalf("MGet[%d] = (%q, %v), want %q", i, values[i], found[i], k)
		}
	}

	// Heartbeat and stats reach each node; the demand snapshot echoes the
	// node's id and lands in the demand cache.
	for i := range nodes {
		if _, ok := cl.CachedDemand(i); ok {
			t.Fatalf("node %d has a cached demand before any push", i)
		}
		d, err := cl.Heartbeat(i)
		if err != nil {
			t.Fatal(err)
		}
		if int(d.NodeID) != i {
			t.Fatalf("node %d demand echoes id %d", i, d.NodeID)
		}
		if cached, ok := cl.CachedDemand(i); !ok || cached != d {
			t.Fatalf("node %d cached demand = (%+v, %v), want the heartbeat's %+v", i, cached, ok, d)
		}
	}
	if raws, err := cl.StatsAll(); err != nil || len(raws) != 3 {
		t.Fatalf("StatsAll = %d docs, err %v", len(raws), err)
	}
}

// TestTemplateDemandEveryCachesPiggyback: the node template's DemandEvery
// is the cluster client's one demand setting. With it at 4, the fourth
// operation routed to a node piggybacks that node's snapshot, and the
// client caches it without any Heartbeat.
func TestTemplateDemandEveryCachesPiggyback(t *testing.T) {
	addrs := make([]string, 2)
	for i := range addrs {
		node, err := StartNode(i, NodeConfig{
			Cache: stemcache.Config{Capacity: 1024, Shards: 2, Ways: 4, Seed: NodeSeed(7, i)},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		addrs[i] = node.Addr()
	}
	cl, err := NewClient(Config{Addrs: addrs, VNodes: 4, Seed: 7, Client: client.Config{DemandEvery: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	owner, _ := cl.Ring().Lookup("demand-key")
	for i := 0; i < 4; i++ {
		if err := cl.Set("demand-key", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	d, ok := cl.CachedDemand(owner)
	if !ok {
		t.Fatalf("node %d: no cached demand after 4 operations at DemandEvery 4", owner)
	}
	if int(d.NodeID) != owner {
		t.Fatalf("cached demand echoes node %d, want %d", d.NodeID, owner)
	}
	if cl.Template().DemandEvery != 0 {
		t.Fatal("Template hands demand sampling to sibling tiers")
	}
}

func TestClientMSetSplits(t *testing.T) {
	_, cl := startCluster(t, 3, 4, 1024)
	pairs := make([]wire.KV, 64)
	keys := make([]string, 64)
	for i := range pairs {
		keys[i] = fmt.Sprintf("mset-%d", i)
		pairs[i] = wire.KV{Key: keys[i], Value: []byte{byte(i)}}
	}
	if err := cl.MSet(pairs); err != nil {
		t.Fatal(err)
	}
	values, found, err := cl.MGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !found[i] || len(values[i]) != 1 || values[i][0] != byte(i) {
			t.Fatalf("pair %d did not round trip: (%v, %v)", i, values[i], found[i])
		}
	}
}

func TestClassifyOrdersAndObserves(t *testing.T) {
	var mu sync.Mutex
	var events []obs.Event
	rb := &Rebalancer{cfg: RebalancerConfig{
		Observer: obs.ObserverFunc(func(e obs.Event) {
			mu.Lock()
			events = append(events, e)
			mu.Unlock()
		}),
	}.withDefaults()}
	rb.epoch = 3

	demand := func(takers, sets uint32) wire.NodeDemand {
		return wire.NodeDemand{Sets: sets, TakerSets: takers, GiverSets: sets - takers}
	}
	states := []nodeState{
		{id: 0, demand: demand(50, 100), load: 10}, // taker (frac 0.5)
		{id: 1, demand: demand(10, 100), load: 2},  // giver (frac 0.1)
		{id: 2, demand: demand(30, 100), load: 5},  // neutral
		{id: 3, demand: demand(90, 100), load: 40}, // taker, more loaded
		{id: 4, demand: demand(0, 100), load: 1},   // giver, least loaded
	}
	takers, givers := rb.classify(states)
	if len(takers) != 2 || takers[0].id != 3 || takers[1].id != 0 {
		t.Fatalf("takers = %+v, want ids [3 0] by load desc", takers)
	}
	if len(givers) != 2 || givers[0].id != 4 || givers[1].id != 1 {
		t.Fatalf("givers = %+v, want ids [4 1] by load asc", givers)
	}
	if len(events) != len(states) {
		t.Fatalf("observed %d events, want %d", len(events), len(states))
	}
	wantClass := map[int]string{0: "taker", 1: "giver", 2: "neutral", 3: "taker", 4: "giver"}
	for _, e := range events {
		if e.Type != obs.EvNodeDemand || e.Tick != 3 {
			t.Fatalf("event %+v: want EvNodeDemand at epoch 3", e)
		}
		if e.Class != wantClass[e.Set] {
			t.Fatalf("node %d classified %q, want %q", e.Set, e.Class, wantClass[e.Set])
		}
	}
}

func TestPickGiverRespectsBalance(t *testing.T) {
	rb := &Rebalancer{cfg: RebalancerConfig{}.withDefaults()}
	states := []nodeState{{id: 0, load: 100}, {id: 1, load: 30}, {id: 2, load: 10}}
	givers := []nodeState{states[2], states[1]} // load-ascending

	// Moving a 20-load slot off the 100-load taker: node 2 (10+20 < 100).
	if g := rb.pickGiver(givers, states, 20, 100); g != 2 {
		t.Fatalf("pickGiver = %d, want 2", g)
	}
	// A slot so hot the move cannot improve balance: no giver qualifies.
	if g := rb.pickGiver(givers, states, 95, 100); g != -1 {
		t.Fatalf("pickGiver = %d, want -1 (no improving move)", g)
	}
}

// TestMigrateHandsOffSlot exercises the full migration path against real
// nodes: copy, ring flip, source cleanup, event emission.
func TestMigrateHandsOffSlot(t *testing.T) {
	nodes, cl := startCluster(t, 2, 4, 1024)

	var events []obs.Event
	rb, err := NewRebalancer(cl,
		func(n int) ([]string, error) { return nodes[n].Keys(), nil },
		RebalancerConfig{
			ChunkSize: 8, // several chunks on purpose
			Observer:  obs.ObserverFunc(func(e obs.Event) { events = append(events, e) }),
		})
	if err != nil {
		t.Fatal(err)
	}

	// Populate; then pick the slot with the most keys on node 0.
	for i := 0; i < 400; i++ {
		if err := cl.Set(fmt.Sprintf("mig-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	perSlot := map[int]int{}
	for _, k := range nodes[0].Keys() {
		perSlot[cl.Ring().SlotOfKey(k)]++
	}
	slot, best := -1, 0
	for s := 0; s < cl.Ring().Slots(); s++ {
		if cl.Ring().Owner(s) == 0 && perSlot[s] > best {
			slot, best = s, perSlot[s]
		}
	}
	if slot < 0 || best < 10 {
		t.Fatalf("no populated slot on node 0 (best %d keys)", best)
	}

	mv, err := rb.migrate(slot, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mv.Keys != best {
		t.Fatalf("migrated %d keys, slot held %d", mv.Keys, best)
	}
	if cl.Ring().Owner(slot) != 1 {
		t.Fatal("ring ownership did not flip")
	}
	// The slot's keys now live on node 1 and are gone from node 0.
	for _, k := range nodes[0].Keys() {
		if cl.Ring().SlotOfKey(k) == slot {
			t.Fatalf("key %q still resident on the old owner", k)
		}
	}
	moved := 0
	for _, k := range nodes[1].Keys() {
		if cl.Ring().SlotOfKey(k) == slot {
			moved++
		}
	}
	if moved != best {
		t.Fatalf("new owner holds %d of the slot's %d keys", moved, best)
	}
	// Reads route to the new owner and hit.
	hits := 0
	for i := 0; i < 400; i++ {
		k := fmt.Sprintf("mig-%d", i)
		if cl.Ring().SlotOfKey(k) != slot {
			continue
		}
		if _, found, err := cl.Get(k); err != nil {
			t.Fatal(err)
		} else if found {
			hits++
		}
	}
	if hits != best {
		t.Fatalf("post-migration reads hit %d of %d", hits, best)
	}
	if len(events) != 1 || events[0].Type != obs.EvSlotMigrate ||
		events[0].Set != slot || events[0].ScS != 0 || events[0].Partner != 1 ||
		events[0].Life != uint64(best) {
		t.Fatalf("migration event %+v, want slot %d 0→1 with %d keys", events, slot, best)
	}
}

// TestEpochQuietCluster: fresh caches are all givers (no taker nodes), so
// an epoch polls demands and plans nothing.
func TestEpochQuietCluster(t *testing.T) {
	nodes, cl := startCluster(t, 3, 4, 1024)
	rb, err := NewRebalancer(cl,
		func(n int) ([]string, error) { return nodes[n].Keys(), nil },
		RebalancerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	report, err := rb.Epoch()
	if err != nil {
		t.Fatal(err)
	}
	if report.Epoch != 1 || len(report.Demands) != 3 {
		t.Fatalf("report = %+v, want epoch 1 with 3 demands", report)
	}
	if len(report.Moves) != 0 {
		t.Fatalf("quiet cluster migrated: %+v", report.Moves)
	}
	for i, d := range report.Demands {
		if int(d.NodeID) != i || d.TakerSets != 0 {
			t.Fatalf("demand %d = %+v, want fresh giver node", i, d)
		}
	}
}

// TestGetOrLoadRoutesAndDeduplicates drives a herd of goroutines through
// the cluster client's read-through path: every asker for one key lands on
// the same ring owner, whose node-local lease table collapses the herd to
// a single origin fetch.
func TestGetOrLoadRoutesAndDeduplicates(t *testing.T) {
	_, cl := startCluster(t, 3, 8, 1024)

	var originCalls atomic.Int64
	origin := func(ctx context.Context, key string) ([]byte, error) {
		originCalls.Add(1)
		time.Sleep(20 * time.Millisecond) // slow origin: let the herd pile up
		return []byte("origin:" + key), nil
	}

	const keys, herd = 8, 8
	var wg sync.WaitGroup
	errs := make(chan error, keys*herd)
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("hot-%d", k)
		for g := 0; g < herd; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				v, err := cl.GetOrLoad(context.Background(), key, origin)
				if err != nil {
					errs <- err
					return
				}
				if string(v) != "origin:"+key {
					errs <- fmt.Errorf("GetOrLoad(%q) = %q", key, v)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := originCalls.Load(); n != keys {
		t.Fatalf("origin calls = %d; want %d (one per key, however many askers)", n, keys)
	}
	// A reload is a pure cache hit: no origin traffic at all.
	if _, err := cl.GetOrLoad(context.Background(), "hot-0", origin); err != nil {
		t.Fatal(err)
	}
	if n := originCalls.Load(); n != keys {
		t.Fatalf("origin calls after reload = %d; want still %d", n, keys)
	}
}
