package cluster_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/stemcache"
	"repro/internal/wire"
)

// startTrio boots a 3-node loopback cluster whose client fails fast on a
// dead node (no retries) — the rig for the MGET/MSET fan-out tests.
func startTrio(t *testing.T) (*cluster.Client, []*cluster.Node) {
	t.Helper()
	nodes := make([]*cluster.Node, 3)
	addrs := make([]string, 3)
	for i := range nodes {
		node, err := cluster.StartNode(i, cluster.NodeConfig{
			Cache: stemcache.Config{Capacity: 1024, Shards: 2, Ways: 4, Seed: cluster.NodeSeed(7, i)},
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		addrs[i] = node.Addr()
		t.Cleanup(func() { node.Close() })
	}
	cl, err := cluster.NewClient(cluster.Config{
		Addrs: addrs, VNodes: 4, Seed: 7,
		Client: client.Config{Retries: -1, DialTimeout: 500 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl, nodes
}

// keysOwnedBy returns n distinct keys the ring routes to node.
func keysOwnedBy(t *testing.T, cl *cluster.Client, node, n int) []string {
	t.Helper()
	var keys []string
	for i := 0; len(keys) < n; i++ {
		if i > 100000 {
			t.Fatalf("only %d of %d keys routed to node %d", len(keys), n, node)
		}
		k := fmt.Sprintf("own-%d", i)
		if owner, _ := cl.Ring().Lookup(k); owner == node {
			keys = append(keys, k)
		}
	}
	return keys
}

// frameCounter returns a reader of how many request frames a node has
// served, not counting the STATS frames the reader itself sent.
func frameCounter(t *testing.T, cl *cluster.Client) func(node int) uint64 {
	asked := map[int]uint64{}
	return func(node int) uint64 {
		t.Helper()
		raw, err := cl.NodeClient(node).Stats()
		if err != nil {
			t.Fatal(err)
		}
		var snap server.StatsSnapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			t.Fatal(err)
		}
		asked[node]++
		return snap.Requests - asked[node]
	}
}

// selfKV pairs every key with itself as the value.
func selfKV(keys []string) []wire.KV {
	pairs := make([]wire.KV, len(keys))
	for i, k := range keys {
		pairs[i] = wire.KV{Key: k, Value: []byte(k)}
	}
	return pairs
}

// TestBatchEmpty: an empty MGET or MSET reaches no node.
func TestBatchEmpty(t *testing.T) {
	cl, nodes := startTrio(t)
	values, found, err := cl.MGet(nil)
	if err != nil || len(values) != 0 || len(found) != 0 {
		t.Fatalf("empty MGet = (%v, %v, %v)", values, found, err)
	}
	if err := cl.MSet(nil); err != nil {
		t.Fatalf("empty MSet: %v", err)
	}
	frames := frameCounter(t, cl)
	for i := range nodes {
		if n := frames(i); n != 0 {
			t.Errorf("node %d saw %d frames for empty batches", i, n)
		}
	}
}

// TestBatchSingleKeyOneNode: a one-key batch contacts only the key's owner.
func TestBatchSingleKeyOneNode(t *testing.T) {
	cl, nodes := startTrio(t)
	solo := keysOwnedBy(t, cl, 2, 1)
	if err := cl.MSet([]wire.KV{{Key: solo[0], Value: []byte("v")}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := nodes[2].Cache().Get(solo[0]); !ok {
		t.Fatal("key missing from its owning node")
	}
	values, found, err := cl.MGet(solo)
	if err != nil {
		t.Fatal(err)
	}
	if !found[0] || string(values[0]) != "v" {
		t.Fatalf("MGet(%s) = (%q, %v)", solo[0], values[0], found[0])
	}
	frames := frameCounter(t, cl)
	if a, b, c := frames(0), frames(1), frames(2); a != 0 || b != 0 || c != 2 {
		t.Fatalf("frames per node = %d, %d, %d; want only the owner's MSET and MGET", a, b, c)
	}
}

// TestBatchAllKeysOneNode: a batch whose keys share an owner travels as one
// frame to that node and none to the others.
func TestBatchAllKeysOneNode(t *testing.T) {
	cl, _ := startTrio(t)
	frames := frameCounter(t, cl)
	keys := keysOwnedBy(t, cl, 1, 4)
	if err := cl.MSet(selfKV(keys)); err != nil {
		t.Fatal(err)
	}
	// One MSET frame, not four.
	if got := frames(1); got != 1 {
		t.Fatalf("node 1 saw %d frames, want 1", got)
	}
	values, found, err := cl.MGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if !found[i] || string(values[i]) != k {
			t.Fatalf("key %q: (%q, %v)", k, values[i], found[i])
		}
	}
	if a, b := frames(0), frames(2); a != 0 || b != 0 {
		t.Fatalf("uninvolved nodes were contacted: %d and %d frames", a, b)
	}
}

// TestBatchSplitsAndMergesInKeyOrder: a batch interleaving three owners is
// split per node and its answers merged back into request order.
func TestBatchSplitsAndMergesInKeyOrder(t *testing.T) {
	cl, nodes := startTrio(t)
	perNode := [][]string{keysOwnedBy(t, cl, 0, 10), keysOwnedBy(t, cl, 1, 10), keysOwnedBy(t, cl, 2, 10)}
	var keys []string
	for i := 0; i < 30; i++ {
		keys = append(keys, perNode[i%3][i/3])
	}
	if err := cl.MSet(selfKV(keys)); err != nil {
		t.Fatal(err)
	}
	for n, node := range nodes {
		if got := node.Cache().Len(); got != 10 {
			t.Fatalf("node %d holds %d keys, want its 10", n, got)
		}
	}
	values, found, err := cl.MGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if !found[i] || string(values[i]) != k {
			t.Fatalf("position %d: want %q, got (%q, %v)", i, k, values[i], found[i])
		}
	}
}

// TestBatchNodeDownPartialResults: with one node dead, its keys read as
// misses, the other nodes' answers survive, and the error is a
// *client.PartialError naming exactly the dead node — ordered by node id
// when several are down.
func TestBatchNodeDownPartialResults(t *testing.T) {
	cl, nodes := startTrio(t)
	perNode := [][]string{keysOwnedBy(t, cl, 0, 3), keysOwnedBy(t, cl, 1, 3), keysOwnedBy(t, cl, 2, 3)}
	var keys []string
	for i := 0; i < 9; i++ {
		keys = append(keys, perNode[i%3][i/3])
	}
	pairs := selfKV(keys)
	if err := cl.MSet(pairs); err != nil {
		t.Fatal(err)
	}

	nodes[1].Close()

	values, found, err := cl.MGet(keys)
	var pe *client.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PartialError, got %v", err)
	}
	if len(pe.Errs) != 1 || pe.Errs[0].Node != 1 {
		t.Fatalf("PartialError = %v, want exactly node 1", pe)
	}
	for i, k := range keys {
		if i%3 == 1 {
			if found[i] || values[i] != nil {
				t.Errorf("dead node's key %q reported (%q, %v), want miss", k, values[i], found[i])
			}
			continue
		}
		if !found[i] || string(values[i]) != k {
			t.Errorf("live node's key %q lost: (%q, %v)", k, values[i], found[i])
		}
	}

	// MSet to the dead node also reports partially.
	err = cl.MSet(pairs)
	if !errors.As(err, &pe) || len(pe.Errs) != 1 || pe.Errs[0].Node != 1 {
		t.Fatalf("MSet partial error = %v, want node 1", err)
	}

	// Two nodes down: the failures come back ordered by node id.
	nodes[2].Close()
	_, _, err = cl.MGet(keys)
	if !errors.As(err, &pe) || len(pe.Errs) != 2 || pe.Errs[0].Node != 1 || pe.Errs[1].Node != 2 {
		t.Fatalf("MGet partial error = %v, want nodes 1 then 2", err)
	}
}

// TestAddNodeUnderTraffic grows the cluster while MGET and Set traffic
// runs: every node id an operation resolves — including the newcomers',
// once slots move to them — must be one the node table can serve.
func TestAddNodeUnderTraffic(t *testing.T) {
	cl, nodes := startTrio(t)
	lister := func(n int) ([]string, error) { return nodes[n].Keys(), nil }

	keys := make([]string, 48)
	for i := range keys {
		keys[i] = fmt.Sprintf("traffic-%d", i)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				if (i+w)%2 == 0 {
					_, _, err = cl.MGet(keys)
				} else {
					err = cl.Set(keys[i%len(keys)], []byte("v"))
				}
				if err != nil {
					errs <- fmt.Errorf("worker %d op %d: %w", w, i, err)
					return
				}
			}
		}()
	}

	// Join three nodes one after another, handing each a slot right away so
	// lookups start naming the new id while the traffic is mid-batch.
	for j := 0; j < 3; j++ {
		node, err := cluster.StartNode(len(nodes), cluster.NodeConfig{
			Cache: stemcache.Config{Capacity: 1024, Shards: 2, Ways: 4, Seed: cluster.NodeSeed(7, len(nodes))},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		nodes = append(nodes, node)
		id, err := cl.AddNode(node.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if id != len(nodes)-1 || cl.Nodes() != len(nodes) || cl.Ring().Nodes() != len(nodes) {
			t.Fatalf("AddNode = id %d with %d table / %d ring nodes, want id %d of %d",
				id, cl.Nodes(), cl.Ring().Nodes(), len(nodes)-1, len(nodes))
		}
		if _, err := cl.MoveSlot(lister, j, cl.Ring().Owner(j), id, 0); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
