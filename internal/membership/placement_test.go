package membership

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// checkIDRule fails t unless placed follows placeReplicas' rule slot by
// slot: each follower is, among the alive nodes not yet in its slot's set,
// one with the fewest followers placed before it, and the lowest id of
// those.
func checkIDRule(t *testing.T, alive []bool, placed [][]int) {
	t.Helper()
	followers := make([]int, len(alive))
	for s, set := range placed {
		for j, f := range set[1:] {
			for c, ok := range alive {
				if !ok || slices.Contains(set[:j+1], c) {
					continue
				}
				if followers[c] < followers[f] || followers[c] == followers[f] && c < f {
					t.Fatalf("slot %d of %v: follower %d (%d followers) placed over node %d (%d)",
						s, placed, f, followers[f], c, followers[c])
				}
			}
			followers[f]++
		}
	}
}

// TestPlacementShape pins the basics on a fixed view and on seeded random
// (owners, alive, rf) views: owner first, no duplicates, only alive nodes,
// exactly min(rf, alive) copies, followers by the id rule (checkIDRule),
// and determinism (same inputs, byte-identical plan).
func TestPlacementShape(t *testing.T) {
	type view struct {
		owners []int
		alive  []bool
		rf     int
	}
	views := []view{{[]int{0, 1, 2, 0, 1, 2}, []bool{true, true, true}, 2}}
	rng := rand.New(rand.NewPCG(55, 23))
	for len(views) < 200 {
		nodes := 1 + rng.IntN(6)
		v := view{alive: make([]bool, nodes), rf: 1 + rng.IntN(5)}
		var up []int
		for n := range v.alive {
			if v.alive[n] = rng.IntN(4) > 0; v.alive[n] {
				up = append(up, n)
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
		got := placeReplicas(v.owners, v.alive, v.rf)
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
		checkIDRule(t, v.alive, got)
		again := placeReplicas(v.owners, v.alive, v.rf)
		if fmt.Sprint(again) != fmt.Sprint(got) {
			t.Fatalf("view %d: placement is not deterministic:\n%v\n%v", i, got, again)
		}
	}
}

// TestPlacementSpreadsAcrossGivers: every alive node gives capacity to
// followers, and each follower goes to the candidate with the fewest so
// far, ties to the lower id (checkIDRule) — so follower counts across the
// eligible nodes differ by at most one.
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
		placed := placeReplicas(tc.owners, alive, tc.rf)
		checkIDRule(t, alive, placed)
		counts := make([]int, tc.nodes)
		for _, set := range placed {
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
// placement reads nothing of the caches, so however warm and full they
// are, every slot gets min(rf, alive) copies.
func TestPlacementKeepsRFWithoutGivers(t *testing.T) {
	owners := []int{0, 1, 2, 0, 1, 2}
	alive := []bool{true, true, true}
	for rf := 1; rf <= 4; rf++ {
		got := placeReplicas(owners, alive, rf)
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
	got := placeReplicas(owners, alive, 3)
	for s, set := range got {
		if len(set) != 1 || set[0] != 0 {
			t.Fatalf("slot %d placed %v with only node 0 alive", s, set)
		}
	}
}
