// Package selector implements the small hardware heap both SBC (its
// "Destination Set Selector") and STEM (paper §4.5) use to track a bounded
// number of uncoupled giver sets, ordered by saturation so the least
// saturated giver can be handed to a taker in O(log capacity).
//
// Semantics follow paper §4.5: a set posts (index, saturation) when its
// monitor identifies it as a giver; if the heap is full, the posting set
// replaces the most-saturated resident only if it is less saturated. A taker
// pops the least-saturated entry when it needs a partner. Entries can also
// be removed or re-keyed in place when a set's saturation changes or it
// stops being a giver.
package selector

// Heap is a fixed-capacity min-heap of (set, saturation) entries. A set is
// found by scanning the resident entries: the heap is a handful of words (16
// in the paper's configuration), cheaper to scan than to index. Not safe for
// concurrent use. Construct with New.
type Heap struct {
	cap  int
	sets []int // heap order: sets[0] is least saturated
	sat  []int // sat[i] is the saturation of sets[i]
}

// New returns a heap holding at most capacity entries. It panics if
// capacity <= 0.
func New(capacity int) *Heap {
	if capacity <= 0 {
		// invariant: SelectorSize is normalized to a positive default before any heap is built.
		panic("selector: capacity must be positive")
	}
	return &Heap{cap: capacity, sets: make([]int, 0, capacity), sat: make([]int, 0, capacity)}
}

// Len returns the number of resident entries.
func (h *Heap) Len() int { return len(h.sets) }

// Capacity returns the fixed capacity.
func (h *Heap) Capacity() int { return h.cap }

// Contains reports whether set is resident.
func (h *Heap) Contains(set int) bool { return h.index(set) >= 0 }

// index returns set's position in heap order, or -1 when it is not resident.
func (h *Heap) index(set int) int {
	for i, s := range h.sets {
		if s == set {
			return i
		}
	}
	return -1
}

// Post offers (set, saturation) to the heap. accepted reports whether the
// set is resident afterwards. If the set is already resident its key is
// updated in place; re-posting the saturation it already has returns (true,
// -1) without writing anything, since the heap is ordered and fixing an
// unmoved key would move nothing. If the heap is full, the set displaces the
// most-saturated resident only when strictly less saturated than it;
// displaced is that evicted set's index, or -1 when nothing was displaced.
func (h *Heap) Post(set, saturation int) (accepted bool, displaced int) {
	if i := h.index(set); i >= 0 {
		if h.sat[i] != saturation {
			h.sat[i] = saturation
			h.fix(i)
		}
		return true, -1
	}
	if len(h.sets) < h.cap {
		h.sets = append(h.sets, set)
		h.sat = append(h.sat, saturation)
		h.up(len(h.sets) - 1)
		return true, -1
	}
	// Full: find the most-saturated resident (a leaf) and compare.
	worst := h.worstIndex()
	if saturation >= h.sat[worst] {
		return false, -1
	}
	displaced = h.sets[worst]
	h.sets[worst] = set
	h.sat[worst] = saturation
	h.fix(worst)
	return true, displaced
}

// PopMin removes and returns the least-saturated entry. ok is false if the
// heap is empty.
func (h *Heap) PopMin() (set, saturation int, ok bool) {
	if len(h.sets) == 0 {
		return 0, 0, false
	}
	set, saturation = h.sets[0], h.sat[0]
	h.removeAt(0)
	return set, saturation, true
}

// PeekMin returns the least-saturated entry without removing it.
func (h *Heap) PeekMin() (set, saturation int, ok bool) {
	if len(h.sets) == 0 {
		return 0, 0, false
	}
	return h.sets[0], h.sat[0], true
}

// Remove deletes set if resident and reports whether it was.
func (h *Heap) Remove(set int) bool {
	i := h.index(set)
	if i < 0 {
		return false
	}
	h.removeAt(i)
	return true
}

func (h *Heap) removeAt(i int) {
	last := len(h.sets) - 1
	if i != last {
		h.sets[i] = h.sets[last]
		h.sat[i] = h.sat[last]
	}
	h.sets = h.sets[:last]
	h.sat = h.sat[:last]
	if i < len(h.sets) {
		h.fix(i)
	}
}

func (h *Heap) worstIndex() int {
	// The maximum of a min-heap is among the leaves.
	n := len(h.sets)
	worst := n / 2
	for i := n/2 + 1; i < n; i++ {
		if h.sat[i] > h.sat[worst] {
			worst = i
		}
	}
	return worst
}

func (h *Heap) fix(i int) {
	h.up(i)
	h.down(i)
}

func (h *Heap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h.sat[p] <= h.sat[i] {
			return
		}
		h.swap(p, i)
		i = p
	}
}

func (h *Heap) down(i int) {
	n := len(h.sets)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.sat[l] < h.sat[small] {
			small = l
		}
		if r < n && h.sat[r] < h.sat[small] {
			small = r
		}
		if small == i {
			return
		}
		h.swap(i, small)
		i = small
	}
}

func (h *Heap) swap(i, j int) {
	h.sets[i], h.sets[j] = h.sets[j], h.sets[i]
	h.sat[i], h.sat[j] = h.sat[j], h.sat[i]
}
