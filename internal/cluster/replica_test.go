package cluster_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/stemcache"
)

// startPair boots a 2-node loopback cluster with a replica source mapping
// every slot to [owner, other node] — the minimal rig for exercising the
// single-key replica-retry path without the membership tier.
func startPair(t *testing.T) (*cluster.Client, []*cluster.Node) {
	t.Helper()
	nodes := make([]*cluster.Node, 2)
	addrs := make([]string, 2)
	for i := range nodes {
		node, err := cluster.StartNode(i, cluster.NodeConfig{
			Cache: stemcache.Config{
				Capacity: 512, Shards: 2, Ways: 4,
				Seed: cluster.NodeSeed(7, i),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		addrs[i] = node.Addr()
		t.Cleanup(func() { node.Close() })
	}
	cl, err := cluster.NewClient(cluster.Config{
		Addrs: addrs, VNodes: 2, Seed: 7,
		Client: client.Config{Retries: -1, DialTimeout: 500 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	cl.SetReplicaSource(func(slot int) []int {
		owner := cl.Ring().Owner(slot)
		return []int{owner, 1 - owner}
	})
	return cl, nodes
}

// keyOwnedBy finds a key routed to the wanted node.
func keyOwnedBy(t *testing.T, cl *cluster.Client, node int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("probe-%d", i)
		if n, _ := cl.Ring().Lookup(k); n == node {
			return k
		}
	}
	t.Fatal("no key routed to the wanted node")
	return ""
}

// TestSingleKeyReplicaRetry: with the owner dead, a Get falls back to the
// slot's replica instead of failing, while Set and Del fail with the owner's
// transient error and leave the replica untouched — only the owner fans a
// write out, so a write a follower took in would be lost when the owner
// returned. With every replica dead too, a Get's combined failure surfaces
// as a *client.PartialError naming each attempted node.
func TestSingleKeyReplicaRetry(t *testing.T) {
	cl, nodes := startPair(t)
	key := keyOwnedBy(t, cl, 0)
	val := []byte("survives")

	// Seed the replica by hand (no membership agents in this rig).
	if err := cl.NodeClient(1).Set(key, val); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Close(); err != nil {
		t.Fatal(err)
	}

	// Reads fall through to the replica.
	got, found, err := cl.Get(key)
	if err != nil || !found || string(got) != string(val) {
		t.Fatalf("Get with dead owner: %q %v %v", got, found, err)
	}

	// Writes go to the owner alone: both fail transiently, and the
	// replica's copy is unchanged.
	if err := cl.Set(key, []byte("rewritten")); err == nil || !client.IsTransient(err) {
		t.Fatalf("Set with dead owner = %v, want a transient error", err)
	}
	if _, err := cl.Del(key); err == nil || !client.IsTransient(err) {
		t.Fatalf("Del with dead owner = %v, want a transient error", err)
	}
	got, found, err = cl.NodeClient(1).Get(key)
	if err != nil || !found || string(got) != string(val) {
		t.Fatalf("replica after refused writes: %q %v %v, want %q", got, found, err, val)
	}

	// Both nodes down: every attempt is reported.
	if err := nodes[1].Close(); err != nil {
		t.Fatal(err)
	}
	_, _, err = cl.Get(key)
	var pe *client.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("Get with all replicas dead returned %v, want *client.PartialError", err)
	}
	if len(pe.Errs) != 2 {
		t.Fatalf("PartialError names %d nodes, want 2: %v", len(pe.Errs), pe)
	}
	seen := map[int]bool{}
	for _, ne := range pe.Errs {
		seen[ne.Node] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("PartialError misses a node: %v", pe)
	}
}

// TestNoReplicaSourceSurfacesOwnerError: without a replica source the
// owner's transient error surfaces as-is (pre-membership behavior).
func TestNoReplicaSourceSurfacesOwnerError(t *testing.T) {
	cl, nodes := startPair(t)
	cl.SetReplicaSource(nil)
	key := keyOwnedBy(t, cl, 0)
	if err := nodes[0].Close(); err != nil {
		t.Fatal(err)
	}
	_, _, err := cl.Get(key)
	if err == nil {
		t.Fatal("Get with dead owner and no replica source succeeded")
	}
	var pe *client.PartialError
	if errors.As(err, &pe) {
		t.Fatalf("error is a PartialError without a replica source: %v", err)
	}
	if !client.IsTransient(err) {
		t.Fatalf("owner error lost its transience: %v", err)
	}
}
