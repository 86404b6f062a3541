package membership

// receiveCap bounds a node's projected utilization (its own live fraction
// plus the replica copies placed on it): placement never pushes a node past
// it, so a giver keeps the slack its own demand needs — a slot runs below
// the replication factor when no node has slack, the node-level analog of a
// spill leaving the chip when no partner set's MSB is clear.
const receiveCap = 0.9

// placeReplicas computes every slot's replica list — the owner first, then
// rf-1 followers — as a pure, deterministic function of its inputs, so two
// managers with the same view plan the same placement.
//
// Follower choice is giver-aware, the node-level form of the paper's rule
// that only sets with a clear SC_S MSB accept spills: candidates are
// ranked by projected utilization (their own live fraction plus the
// estimated cost of replica copies already planned onto them), so slack
// nodes — givers — fill up first. receiveCap is a hard constraint: a
// candidate whose projected utilization would cross it hosts no copy, and
// a slot whose candidates are all over cap simply runs below rf — exactly
// as a set-level spill leaves the chip when no partner has a clear MSB.
// Placement never eats the slack a giver's own demand needs.
//
// owners[s] is slot s's owning node; alive[n] whether node n accepts
// copies; util[n] node n's live-capacity fraction in [0, 1] (0 when
// unknown). Dead or left nodes appear only as owners the caller is about
// to strip — they never receive followers.
func placeReplicas(owners []int, alive []bool, rf int, util []float64) [][]int {
	n := len(alive)
	owned := make([]int, n)
	for _, o := range owners {
		owned[o]++
	}
	// slotCost[o] estimates one slot's utilization share: the owner's own
	// utilization spread over its slots — a replica of a hot node's slot
	// costs its host more than a cold node's.
	slotCost := make([]float64, n)
	for o := 0; o < n; o++ {
		if owned[o] > 0 {
			slotCost[o] = util[o] / float64(owned[o])
		}
	}
	proj := make([]float64, n)
	copy(proj, util)

	out := make([][]int, len(owners))
	for s, o := range owners {
		set := make([]int, 1, rf)
		set[0] = o
		cost := slotCost[o]
		for len(set) < rf {
			best := -1
			for c := 0; c < n; c++ {
				if !alive[c] || contains(set, c) || proj[c]+cost > receiveCap {
					continue
				}
				if best < 0 || proj[c] < proj[best] {
					best = c
				}
			}
			if best < 0 {
				break // no candidate with slack (or fewer alive than rf)
			}
			set = append(set, best)
			proj[best] += cost
		}
		out[s] = set
	}
	return out
}

// contains reports whether set holds node (replica sets are tiny; linear
// scan beats any structure).
func contains(set []int, node int) bool {
	for _, n := range set {
		if n == node {
			return true
		}
	}
	return false
}
