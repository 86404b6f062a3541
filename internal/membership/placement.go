package membership

import "slices"

// placeReplicas computes every slot's replica list — the owner first, then
// followers up to min(rf, alive) copies — as a pure, deterministic function
// of its inputs, so two managers with the same view plan the same
// placement.
//
// The replication factor is a promise, not a preference: a slot runs short
// only when fewer than rf nodes are alive. Which node hosts a follower is
// the preference: the candidate with the fewest followers planned so far,
// ties to the lower id.
//
// owners[s] is slot s's owning node; alive[n] whether node n accepts
// copies. Dead or left nodes appear only as owners the caller is about to
// strip — they never receive followers.
func placeReplicas(owners []int, alive []bool, rf int) [][]int {
	followers := make([]int, len(alive))
	out := make([][]int, len(owners))
	for s, o := range owners {
		set := make([]int, 1, rf)
		set[0] = o
		for len(set) < rf {
			best := -1
			for c, ok := range alive {
				if !ok || slices.Contains(set, c) {
					continue
				}
				if best < 0 || followers[c] < followers[best] {
					best = c
				}
			}
			if best < 0 {
				break // fewer alive nodes than rf
			}
			set = append(set, best)
			followers[best]++
		}
		out[s] = set
	}
	return out
}
