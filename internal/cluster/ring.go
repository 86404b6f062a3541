// Package cluster scales the STEM capacity story from sets to nodes: N
// stemd servers sit behind a consistent-hash ring, a cluster-aware client
// routes operations and splits batches per owner, and MoveSlot hands a
// virtual-node slot and its resident keys from one node to another. The
// policy that decides moves lives one package up: membership.Manager is
// the only writer of ring ownership. Its joins, leaves and failovers move
// slots; each move re-places replicas and pushes a new view.
//
// The analogy is deliberate but not exact. Inside a cache, a taker set
// couples with a giver set and both remain owners of their blocks
// (cooperative dual-residency, paper §4.5). Between nodes, a slot migration
// *moves ownership*: after the handoff exactly one node serves the slot.
// DESIGN.md §6.1 spells out why (a network cache cannot afford a second
// network hop per miss to probe a partner node, the way a second set probe
// within an LLC can).
//
// The package has two lock classes, ranked Ring.mu → Node.mu (enforced by
// the stemlint lockorder analyzer). Neither is held across a network call.
package cluster

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/hashfn"
	"repro/internal/sim"
)

// Ring is a consistent-hash ring with a fixed slot set and movable
// ownership: nodes × vnodes slots are placed on the ring at
// seed-deterministic points once, and a handoff changes only which node
// owns a slot — the key→slot mapping never moves, so a migration's blast
// radius is exactly the keys of the migrated slot.
//
// All methods are safe for concurrent use. Ring.mu is the package's
// top-ranked lock.
type Ring struct {
	slots int
	seed  uint64
	// points is sorted ascending; lookup walks clockwise to the first point
	// at or after the key's point.
	points []ringPoint
	// hi/lo hash a key's 64-bit digest onto the ring (two independent H3
	// halves — the same hardware-hash family the shadow directory uses).
	hi, lo *hashfn.Hash

	// mu guards nodes, owner, epochs, and version.
	//lint:rank 1
	mu    sync.RWMutex
	nodes int
	owner []int
	// epochs[s] counts slot s's ownership flips — strictly monotone per
	// slot, so a stale view of "who owns s" is detectable by epoch compare.
	// Nothing routes by it yet: it is fault-detection state, read through
	// Epochs.
	epochs  []uint64
	version uint64
}

// ringPoint is one slot's fixed position on the ring. Ties on point are
// broken by slot id so the sort is total and deterministic.
type ringPoint struct {
	point uint64
	slot  int
}

// NewRing builds a ring for nodes servers with vnodes slots each, placed
// deterministically from seed. Initially slot s belongs to node s mod nodes
// (every node owns exactly vnodes slots).
func NewRing(nodes, vnodes int, seed uint64) (*Ring, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("cluster: ring needs at least one node, got %d", nodes)
	}
	if vnodes < 1 {
		return nil, fmt.Errorf("cluster: ring needs at least one vnode per node, got %d", vnodes)
	}
	r := &Ring{
		nodes: nodes,
		slots: nodes * vnodes,
		seed:  seed,
		hi:    hashfn.New(32, sim.Mix64(seed^0x736c6f74686967)), // "slothig"
		lo:    hashfn.New(32, sim.Mix64(seed^0x736c6f746c6f77)), // "slotlow"
	}
	r.points = make([]ringPoint, r.slots)
	r.owner = make([]int, r.slots)
	r.epochs = make([]uint64, r.slots)
	for s := 0; s < r.slots; s++ {
		r.points[s] = ringPoint{point: r.pointOf(sim.Mix64(seed + uint64(s) + 1)), slot: s}
		r.owner[s] = s % nodes
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].point != r.points[j].point {
			return r.points[i].point < r.points[j].point
		}
		return r.points[i].slot < r.points[j].slot
	})
	return r, nil
}

// pointOf maps a 64-bit digest to a ring position via the two H3 halves.
// The digest is pre-mixed so tag bits are dense (H3 ignores zero bits).
func (r *Ring) pointOf(digest uint64) uint64 {
	return uint64(r.hi.Sum(digest))<<32 | uint64(r.lo.Sum(digest))
}

// fnv64 is FNV-1a over the key bytes — the key's 64-bit digest.
func fnv64(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// SlotOfKey returns the slot owning key: the first slot point clockwise
// from the key's ring position. The mapping is a pure function of (seed,
// key) — it never changes as ownership moves.
func (r *Ring) SlotOfKey(key string) int {
	p := r.pointOf(sim.Mix64(fnv64(key) ^ r.seed))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].point >= p })
	if i == len(r.points) {
		i = 0 // wrap past the highest point to the ring's start
	}
	return r.points[i].slot
}

// Owner returns the node currently owning slot.
func (r *Ring) Owner(slot int) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.owner[slot]
}

// Lookup routes key to its current owner, returning the node and the slot
// (the slot is what a router records as the load-accounting bucket).
func (r *Ring) Lookup(key string) (node, slot int) {
	slot = r.SlotOfKey(key)
	r.mu.RLock()
	node = r.owner[slot]
	r.mu.RUnlock()
	return node, slot
}

// Move transfers slot's ownership to node, bumps the slot's epoch and the
// ring version. MoveSlot calls it after copying the slot's keys; the
// membership manager's move executor calls it directly only when the old
// owner is dead and the keys are already on the promoted replica.
func (r *Ring) Move(slot, node int) error {
	if slot < 0 || slot >= r.slots {
		return fmt.Errorf("cluster: slot %d out of range [0, %d)", slot, r.slots)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if node < 0 || node >= r.nodes {
		return fmt.Errorf("cluster: node %d out of range [0, %d)", node, r.nodes)
	}
	if r.owner[slot] != node {
		r.owner[slot] = node
		r.epochs[slot]++
	}
	r.version++
	return nil
}

// AddNode grows the node set by one and returns the new node's id. The slot
// set is fixed at construction, so the new node owns nothing until Move
// assigns it slots — which is what keeps a join's movement bounded to the
// slots explicitly handed over.
func (r *Ring) AddNode() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nodes++
	return r.nodes - 1
}

// Epochs returns a copy of the per-slot ownership-epoch table: entry s is
// the number of times slot s's owner has changed.
func (r *Ring) Epochs() []uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]uint64, len(r.epochs))
	copy(out, r.epochs)
	return out
}

// OwnedSlots returns node's slots in ascending order.
func (r *Ring) OwnedSlots(node int) []int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var slots []int
	for s, o := range r.owner {
		if o == node {
			slots = append(slots, s)
		}
	}
	return slots
}

// Owners returns a copy of the slot→node ownership table.
func (r *Ring) Owners() []int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]int, len(r.owner))
	copy(out, r.owner)
	return out
}

// Nodes returns the node count (it can grow via AddNode).
func (r *Ring) Nodes() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.nodes
}

// Slots returns the total slot count (nodes × vnodes).
func (r *Ring) Slots() int { return r.slots }

// Version counts Move calls — a cheap "did ownership change" check.
func (r *Ring) Version() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.version
}
