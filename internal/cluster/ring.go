// Package cluster scales the STEM capacity story from sets to nodes: N
// stemd servers sit behind a consistent-hash ring, a cluster-aware client
// routes operations by its view and splits batches per owner, and CopySlot
// and DropSlot copy a virtual-node slot's resident keys between nodes. The
// policy that decides moves lives one package up: membership.Manager is the
// only writer of slot ownership. Its joins, leaves and failovers move
// slots; each move re-places replicas and pushes a new view.
//
// Ownership lives in one record, the View (epoch, members, replica table
// whose first column is the owner). The manager, each node's agent and
// each Client hold a copy of their own, and copies travel on the wire: a
// node answers a key it does not serve with StatusMoved and its view, and
// a Client adopts any newer view it is answered with. The Ring holds no
// ownership: it is the fixed key→slot hash every holder shares.
//
// The analogy is deliberate but not exact. Inside a cache, a taker set
// couples with a giver set and both remain owners of their blocks
// (cooperative dual-residency, paper §4.5). Between nodes, a slot migration
// *moves ownership*: after the handoff exactly one node serves the slot's
// writes. DESIGN.md §6.1 spells out why (a network cache cannot afford a
// second network hop per miss to probe a partner node, the way a second set
// probe within an LLC can).
//
// The package's one lock, Client.mu, is never held across a network call.
package cluster

import (
	"fmt"
	"sort"

	"repro/internal/hashfn"
	"repro/internal/sim"
)

// Ring is a consistent-hash ring with a fixed slot set: nodes × vnodes
// slots are placed on the ring at seed-deterministic points once, so a
// handoff changes only which node owns a slot — the key→slot mapping never
// moves, and a migration's blast radius is exactly the keys of the
// migrated slot. Who owns a slot is a View's business, not the ring's.
//
// A Ring is immutable and safe for concurrent use.
type Ring struct {
	nodes, slots int
	seed         uint64
	// points is sorted ascending; lookup walks clockwise to the first point
	// at or after the key's point.
	points []ringPoint
	// hi/lo hash a key's 64-bit digest onto the ring (two independent H3
	// halves — the same hardware-hash family the shadow directory uses).
	hi, lo *hashfn.Hash
}

// ringPoint is one slot's fixed position on the ring. Ties on point are
// broken by slot id so the sort is total and deterministic.
type ringPoint struct {
	point uint64
	slot  int
}

// NewRing builds a ring for nodes servers with vnodes slots each, placed
// deterministically from seed. Slot s's home is node s mod nodes: its
// owner in the epoch-0 view (every node owns exactly vnodes slots).
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
	for s := 0; s < r.slots; s++ {
		r.points[s] = ringPoint{point: r.pointOf(sim.Mix64(seed + uint64(s) + 1)), slot: s}
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

// Lookup returns key's slot and the slot's home node, its owner in the
// epoch-0 view. Once a view moves the slot the home is no longer its
// owner: a router reads the owner from its view (Client.View).
func (r *Ring) Lookup(key string) (home, slot int) {
	slot = r.SlotOfKey(key)
	return slot % r.nodes, slot
}

// Slots returns the total slot count (nodes × vnodes).
func (r *Ring) Slots() int { return r.slots }
