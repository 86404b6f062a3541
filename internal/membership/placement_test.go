package membership

import (
	"fmt"
	"testing"
)

// TestPlacementShape pins the basics: owner first, rf copies when slack
// allows, no duplicates, only alive nodes, and determinism (same inputs,
// byte-identical plan).
func TestPlacementShape(t *testing.T) {
	owners := []int{0, 1, 2, 0, 1, 2}
	alive := []bool{true, true, true}
	util := []float64{0.2, 0.1, 0.3}
	got := placeReplicas(owners, alive, 2, util)
	if len(got) != len(owners) {
		t.Fatalf("placement covers %d slots, want %d", len(got), len(owners))
	}
	for s, set := range got {
		if len(set) != 2 {
			t.Fatalf("slot %d has %d replicas, want 2: %v", s, len(set), set)
		}
		if set[0] != owners[s] {
			t.Fatalf("slot %d replica set %v does not lead with owner %d", s, set, owners[s])
		}
		seen := map[int]bool{}
		for _, n := range set {
			if seen[n] {
				t.Fatalf("slot %d replica set %v repeats node %d", s, set, n)
			}
			seen[n] = true
			if n < 0 || n >= len(alive) || !alive[n] {
				t.Fatalf("slot %d replica set %v includes invalid node %d", s, set, n)
			}
		}
	}
	again := placeReplicas(owners, alive, 2, util)
	if fmt.Sprint(again) != fmt.Sprint(got) {
		t.Fatalf("placement is not deterministic:\n%v\n%v", got, again)
	}
}

// TestPlacementPrefersGivers: follower copies land on the slack node, not
// the loaded one.
func TestPlacementPrefersGivers(t *testing.T) {
	owners := []int{0, 0, 0, 0}
	alive := []bool{true, true, true}
	util := []float64{0.4, 0.6, 0.05} // node 2 is the giver
	got := placeReplicas(owners, alive, 2, util)
	for s, set := range got {
		if len(set) != 2 || set[1] != 2 {
			t.Fatalf("slot %d placed on %v; the giver (node 2) should host the copy", s, set)
		}
	}
}

// TestPlacementSpreadsAcrossGivers: as copies accumulate on the preferred
// giver its projected utilization rises, so later slots spill to the next
// one — placement balances instead of piling onto a single node.
func TestPlacementSpreadsAcrossGivers(t *testing.T) {
	owners := make([]int, 8)
	alive := []bool{true, true, true}
	util := []float64{0.8, 0.1, 0.1}
	got := placeReplicas(owners, alive, 2, util)
	hosts := map[int]int{}
	for _, set := range got {
		hosts[set[1]]++
	}
	if hosts[1] == 0 || hosts[2] == 0 {
		t.Fatalf("copies all piled onto one node: %v", hosts)
	}
}

// TestPlacementRespectsReceiveCap: the cap is hard — when every candidate
// is over it, the slot runs below the replication factor rather than eat a
// node's remaining slack.
func TestPlacementRespectsReceiveCap(t *testing.T) {
	owners := []int{0, 1, 2}
	alive := []bool{true, true, true}
	util := []float64{0.95, 0.95, 0.95}
	got := placeReplicas(owners, alive, 2, util)
	for s, set := range got {
		if len(set) != 1 {
			t.Fatalf("slot %d placed %v despite every node being over cap", s, set)
		}
		if set[0] != owners[s] {
			t.Fatalf("slot %d lost its owner: %v", s, set)
		}
	}
}

// TestPlacementSkipsDeadNodes: dead members host nothing, and with fewer
// alive nodes than rf the set is just shorter.
func TestPlacementSkipsDeadNodes(t *testing.T) {
	owners := []int{0, 0}
	alive := []bool{true, false, false}
	got := placeReplicas(owners, alive, 3, []float64{0, 0, 0})
	for s, set := range got {
		if len(set) != 1 || set[0] != 0 {
			t.Fatalf("slot %d placed %v with only node 0 alive", s, set)
		}
	}
}
