package cluster

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/server"
	"repro/internal/stemcache"
	"repro/internal/wire"
)

// startCluster spins up n in-process nodes plus a routing client with few
// vnodes, so each slot holds many of a test's keys.
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

	// A ping and stats reach each node; each STATS document echoes its
	// node's id.
	for i := range nodes {
		if err := cl.NodeClient(i).Ping(); err != nil {
			t.Fatal(err)
		}
	}
	raws, err := cl.StatsAll()
	if err != nil || len(raws) != 3 {
		t.Fatalf("StatsAll = %d docs, err %v", len(raws), err)
	}
	for i, raw := range raws {
		var snap server.StatsSnapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			t.Fatal(err)
		}
		if snap.NodeID != i {
			t.Fatalf("node %d STATS echoes id %d", i, snap.NodeID)
		}
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

// TestMigrateHandsOffSlot exercises the data halves of a handoff against
// real nodes: CopySlot puts a slot's keys on the new owner, several chunks
// at a time, and DropSlot clears them off the old one. (The view flip
// between them is the membership manager's: its TestPartialJoin… and
// TestMoveOntoFollowerKeepsAckedWrites check it.)
func TestMigrateHandsOffSlot(t *testing.T) {
	nodes, cl := startCluster(t, 2, 4, 1024)

	// Populate; then pick the slot with the most keys on node 0.
	for i := 0; i < 400; i++ {
		if err := cl.Set(fmt.Sprintf("mig-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	perSlot := map[int]int{}
	for _, k := range nodes[0].Keys() {
		perSlot[cl.Ring().SlotOf(k, cl.Ring().Slots())]++
	}
	slot, best := -1, 0
	for s := 0; s < cl.Ring().Slots(); s++ {
		if cl.View().Owner(s) == 0 && perSlot[s] > best {
			slot, best = s, perSlot[s]
		}
	}
	if slot < 0 || best < 10 {
		t.Fatalf("no populated slot on node 0 (best %d keys)", best)
	}

	lister := func(n int) ([]string, error) { return nodes[n].Keys(), nil }
	copied, err := cl.CopySlot(lister, slot, 0, 1, 8) // several chunks on purpose
	if err != nil {
		t.Fatal(err)
	}
	if copied != best {
		t.Fatalf("copied %d keys, slot held %d", copied, best)
	}
	if err := cl.DropSlot(lister, slot, 0, 8); err != nil {
		t.Fatal(err)
	}
	// The slot's keys now live on node 1 and are gone from node 0.
	for _, k := range nodes[0].Keys() {
		if cl.Ring().SlotOf(k, cl.Ring().Slots()) == slot {
			t.Fatalf("key %q still resident on the old owner", k)
		}
	}
	moved := 0
	for i := 0; i < 400; i++ {
		k := fmt.Sprintf("mig-%d", i)
		if cl.Ring().SlotOf(k, cl.Ring().Slots()) != slot {
			continue
		}
		if v, found, err := cl.NodeClient(1).Get(k); err != nil {
			t.Fatal(err)
		} else if found && string(v) == "v" {
			moved++
		}
	}
	if moved != best {
		t.Fatalf("new owner serves %d of the slot's %d keys", moved, best)
	}
}
