package cluster_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/membership"
	"repro/internal/stemcache"
)

// pairTpl fails fast: no retries, and a write to a dead owner waits a
// fifth of a second for a failover before its error surfaces.
var pairTpl = client.Config{Retries: -1, DialTimeout: 500 * time.Millisecond, OpTimeout: 200 * time.Millisecond}

// startPair boots a 2-node loopback cluster on a manual clock, which it
// returns. With rf 2 it brings the membership tier up, so every slot's view
// is [owner, other node] — the minimal rig for exercising the single-key
// replica-retry path; with rf 0 the nodes hold no view and the client knows
// no follower.
func startPair(t *testing.T, rf int) (*cluster.Client, *membership.Rig, *clock.Manual) {
	t.Helper()
	clk := new(clock.Manual)
	tpl := pairTpl
	tpl.Clock = clk
	rig, err := membership.StartRig(2,
		cluster.NodeConfig{Cache: stemcache.Config{Capacity: 512, Shards: 2, Ways: 4, Clock: clk}},
		cluster.Config{VNodes: 2, Seed: 7, Client: tpl})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rig.Close)
	if rf > 0 {
		if err := rig.Bootstrap(membership.Config{ReplicationFactor: rf}); err != nil {
			t.Fatal(err)
		}
	}
	return rig.Client(), rig, clk
}

// keyOwnedBy finds a key the client's view routes to the wanted node.
func keyOwnedBy(t *testing.T, cl *cluster.Client, node int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("probe-%d", i)
		if cl.View().Owner(cl.Ring().SlotOf(k, cl.Ring().Slots())) == node {
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
	cl, rig, clk := startPair(t, 2)
	key := keyOwnedBy(t, cl, 0)
	val := []byte("survives")

	// The owner fans the write out to the follower its view names.
	if err := cl.Set(key, val); err != nil {
		t.Fatal(err)
	}
	if err := rig.Kill(0); err != nil {
		t.Fatal(err)
	}

	// Reads fall through to the replica.
	got, found, err := cl.Get(key)
	if err != nil || !found || string(got) != string(val) {
		t.Fatalf("Get with dead owner: %q %v %v", got, found, err)
	}

	// Writes go to the owner alone: with no failover to wait for, both
	// fail transiently after waiting exactly OpTimeout, and the replica's
	// copy is unchanged.
	start := clk.Now()
	if err := cl.Set(key, []byte("rewritten")); err == nil || !client.IsTransient(err) {
		t.Fatalf("Set with dead owner = %v, want a transient error", err)
	}
	if waited := time.Duration(clk.Now() - start); waited != pairTpl.OpTimeout {
		t.Fatalf("Set with dead owner waited %v, want OpTimeout %v", waited, pairTpl.OpTimeout)
	}
	if _, err := cl.Del(key); err == nil || !client.IsTransient(err) {
		t.Fatalf("Del with dead owner = %v, want a transient error", err)
	}
	got, found, err = cl.NodeClient(1).Get(key)
	if err != nil || !found || string(got) != string(val) {
		t.Fatalf("replica after refused writes: %q %v %v, want %q", got, found, err, val)
	}

	// Both nodes down: every attempt is reported.
	if err := rig.Kill(1); err != nil {
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

// TestNoFollowerSurfacesOwnerError: with no follower in the client's view
// (no membership tier: the nodes hold no view, and the epoch-0 view names
// owners alone) the owner's transient error surfaces as-is.
func TestNoFollowerSurfacesOwnerError(t *testing.T) {
	cl, rig, _ := startPair(t, 0)
	key := keyOwnedBy(t, cl, 0)
	if err := rig.Kill(0); err != nil {
		t.Fatal(err)
	}
	_, _, err := cl.Get(key)
	if err == nil {
		t.Fatal("Get with dead owner and no follower succeeded")
	}
	var pe *client.PartialError
	if errors.As(err, &pe) {
		t.Fatalf("error is a PartialError without a follower: %v", err)
	}
	if !client.IsTransient(err) {
		t.Fatalf("owner error lost its transience: %v", err)
	}
}
