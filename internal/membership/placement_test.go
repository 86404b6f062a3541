package membership

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/wire"
)

// giverDemand returns one heartbeat snapshot per node, node n reporting
// givers[n] of 100 sets with a clear SC_S MSB.
func giverDemand(givers ...uint32) []wire.NodeDemand {
	d := make([]wire.NodeDemand, len(givers))
	for n, g := range givers {
		d[n] = wire.NodeDemand{Sets: 100, GiverSets: g}
	}
	return d
}

// TestPlacementShape pins the basics on a fixed view and on seeded random
// (owners, alive, demand, rf) views: owner first, no duplicates, only alive
// nodes, exactly min(rf, alive) copies, and determinism (same inputs,
// byte-identical plan).
func TestPlacementShape(t *testing.T) {
	type view struct {
		owners []int
		alive  []bool
		demand []wire.NodeDemand
		rf     int
	}
	views := []view{{[]int{0, 1, 2, 0, 1, 2}, []bool{true, true, true}, giverDemand(20, 10, 30), 2}}
	rng := rand.New(rand.NewPCG(55, 23))
	for len(views) < 200 {
		nodes := 1 + rng.IntN(6)
		v := view{alive: make([]bool, nodes), demand: make([]wire.NodeDemand, nodes), rf: 1 + rng.IntN(5)}
		var up []int
		for n := range v.alive {
			if v.alive[n] = rng.IntN(4) > 0; v.alive[n] {
				up = append(up, n)
			}
			if sets := uint32(rng.IntN(3)) * 64; sets > 0 { // 0: not heard from yet
				v.demand[n] = wire.NodeDemand{Sets: sets, GiverSets: uint32(rng.IntN(int(sets) + 1))}
			}
		}
		if len(up) == 0 {
			continue
		}
		v.owners = make([]int, 1+rng.IntN(24))
		for s := range v.owners {
			v.owners[s] = up[rng.IntN(len(up))]
		}
		views = append(views, v)
	}

	for i, v := range views {
		got := placeReplicas(v.owners, v.alive, v.rf, v.demand)
		if len(got) != len(v.owners) {
			t.Fatalf("view %d: placement covers %d slots, want %d", i, len(got), len(v.owners))
		}
		up := 0
		for _, ok := range v.alive {
			if ok {
				up++
			}
		}
		for s, set := range got {
			if want := min(v.rf, up); len(set) != want {
				t.Fatalf("view %d: slot %d has %d replicas, want min(rf %d, alive %d): %v", i, s, len(set), v.rf, up, set)
			}
			if set[0] != v.owners[s] {
				t.Fatalf("view %d: slot %d replica set %v does not lead with owner %d", i, s, set, v.owners[s])
			}
			for j, n := range set {
				if slices.Index(set, n) != j {
					t.Fatalf("view %d: slot %d replica set %v repeats node %d", i, s, set, n)
				}
				if n < 0 || n >= len(v.alive) || !v.alive[n] {
					t.Fatalf("view %d: slot %d replica set %v includes invalid node %d", i, s, set, n)
				}
			}
		}
		again := placeReplicas(v.owners, v.alive, v.rf, v.demand)
		if fmt.Sprint(again) != fmt.Sprint(got) {
			t.Fatalf("view %d: placement is not deterministic:\n%v\n%v", i, got, again)
		}
	}
}

// TestPlacementPrefersGivers: between candidates with equally many
// followers, the one with the higher giver fraction hosts the copy, and
// with equal fractions the lower id does.
func TestPlacementPrefersGivers(t *testing.T) {
	owners := []int{0, 0, 0, 0}
	alive := []bool{true, true, true}
	for _, tc := range []struct {
		demand []wire.NodeDemand
		want   string
	}{
		{giverDemand(40, 10, 60), "[[0 2] [0 1] [0 2] [0 1]]"},                             // node 2 is the giver
		{giverDemand(40, 60, 10), "[[0 1] [0 2] [0 1] [0 2]]"},                             // node 1 is
		{giverDemand(40, 30, 30), "[[0 1] [0 2] [0 1] [0 2]]"},                             // a tie: lower id
		{[]wire.NodeDemand{{}, {}, {Sets: 64, GiverSets: 1}}, "[[0 2] [0 1] [0 2] [0 1]]"}, // unheard reads 0
	} {
		if got := fmt.Sprint(placeReplicas(owners, alive, 2, tc.demand)); got != tc.want {
			t.Errorf("demand %+v: placed %s, want %s", tc.demand, got, tc.want)
		}
	}
}

// TestPlacementSpreadsAcrossGivers: followers go to the candidate with the
// fewest so far, so a strong giver does not collect every copy — follower
// counts across the eligible nodes differ by at most one.
func TestPlacementSpreadsAcrossGivers(t *testing.T) {
	for _, tc := range []struct {
		owners   []int
		nodes    int
		rf       int
		eligible []int
	}{
		{make([]int, 8), 3, 2, []int{1, 2}},
		{make([]int, 9), 4, 3, []int{1, 2, 3}},
		{[]int{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3}, 4, 2, []int{0, 1, 2, 3}},
	} {
		alive := make([]bool, tc.nodes)
		for n := range alive {
			alive[n] = true
		}
		demand := giverDemand(90, 95, 5, 50)[:tc.nodes]
		counts := make([]int, tc.nodes)
		for _, set := range placeReplicas(tc.owners, alive, tc.rf, demand) {
			for _, f := range set[1:] {
				counts[f]++
			}
		}
		lo, hi := counts[tc.eligible[0]], counts[tc.eligible[0]]
		for _, n := range tc.eligible {
			lo, hi = min(lo, counts[n]), max(hi, counts[n])
		}
		if hi-lo > 1 {
			t.Errorf("owners %v rf %d: follower counts %v differ by %d", tc.owners, tc.rf, counts, hi-lo)
		}
	}
}

// TestPlacementKeepsRFWithoutGivers: the replication factor is a promise —
// with every node reporting no giver sets (every cache warm and full),
// every slot still gets min(rf, alive) copies.
func TestPlacementKeepsRFWithoutGivers(t *testing.T) {
	owners := []int{0, 1, 2, 0, 1, 2}
	alive := []bool{true, true, true}
	for rf := 1; rf <= 4; rf++ {
		got := placeReplicas(owners, alive, rf, giverDemand(0, 0, 0))
		for s, set := range got {
			if len(set) != min(rf, 3) || set[0] != owners[s] {
				t.Fatalf("rf %d: slot %d placed %v, want owner %d and %d copies", rf, s, set, owners[s], min(rf, 3))
			}
		}
	}
}

// TestPlacementSkipsDeadNodes: dead members host nothing, and with fewer
// alive nodes than rf the set is just shorter.
func TestPlacementSkipsDeadNodes(t *testing.T) {
	owners := []int{0, 0}
	alive := []bool{true, false, false}
	got := placeReplicas(owners, alive, 3, make([]wire.NodeDemand, 3))
	for s, set := range got {
		if len(set) != 1 || set[0] != 0 {
			t.Fatalf("slot %d placed %v with only node 0 alive", s, set)
		}
	}
}
