// Package cluster scales the STEM capacity story from sets to nodes: N
// stemd servers share one seeded key→slot hash, a cluster-aware client
// routes operations by its view and splits batches per owner, and CopySlot
// and DropSlot copy a slot's resident keys between nodes. The policy that
// decides moves lives one package up: membership.Manager is the only
// writer of slot ownership. Its joins, leaves and failovers move slots;
// each move re-places replicas and pushes a new view.
//
// Ownership lives in one record, the view (wire.View: epoch, members,
// replica table whose first column is the owner), one type from the
// decoder to every holder. The manager, each node's agent and each Client
// hold a copy of their own, and copies travel on the wire: a node answers
// a key it does not serve with StatusMoved and its view, and a Client
// adopts any newer view it is answered with, as decoded. The decoder
// checks a view's shape; this package converts none. The Ring holds no
// ownership: it is the fixed key→slot hash every holder shares, as an
// LLC's set index is a fixed function of the address (paper §1).
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

	"repro/internal/sim"
	"repro/internal/wire"
)

// Ring is the cluster's key→slot hash: a seeded digest of the key modulo
// the slot count of the view the caller holds (SlotOf). That count is
// fixed when the cluster bootstraps (nodes × vnodes, the epoch-0 view) and
// a handoff changes only a slot's owner, so a migration's blast radius is
// exactly the keys of the migrated slot.
//
// A Ring is immutable and safe for concurrent use.
type Ring struct {
	nodes, slots int
	seed         uint64
}

// NewRing builds the hash for a cluster bootstrapped with nodes servers of
// vnodes slots each. Slot s's home is node s mod nodes: its owner in the
// epoch-0 view (every node owns exactly vnodes slots).
func NewRing(nodes, vnodes int, seed uint64) (*Ring, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("cluster: ring needs at least one node, got %d", nodes)
	}
	if vnodes < 1 {
		return nil, fmt.Errorf("cluster: ring needs at least one vnode per node, got %d", vnodes)
	}
	return &Ring{nodes: nodes, slots: nodes * vnodes, seed: seed}, nil
}

// InitialView is the epoch-0 view of a cluster whose node i serves at
// addrs[i]: every node alive, every slot owned by its home node
// (Ring.Lookup) and held by it alone.
func (r *Ring) InitialView(addrs []string) *wire.View {
	v := &wire.View{Members: make([]wire.Member, len(addrs)), Replicas: make([][]int, r.slots)}
	for i, addr := range addrs {
		v.Members[i] = wire.Member{State: wire.MemberAlive, Addr: addr}
	}
	for s := range v.Replicas {
		v.Replicas[s] = []int{s % r.nodes}
	}
	return v
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

// SlotOf returns key's slot among slots slots, the slot count of the view
// the caller holds: the one key→slot decision every router, agent and
// slot copy makes. It is a pure function of (seed, key, slots).
func (r *Ring) SlotOf(key string, slots int) int {
	return int(sim.Mix64(fnv64(key)^r.seed) % uint64(slots))
}

// Lookup returns key's slot in the epoch-0 view and the slot's home node,
// its owner there. Once a view moves the slot the home is no longer its
// owner: a router reads the owner from its view (Client.View).
func (r *Ring) Lookup(key string) (home, slot int) {
	slot = r.SlotOf(key, r.slots)
	return slot % r.nodes, slot
}

// Slots returns the epoch-0 view's slot count (nodes × vnodes).
func (r *Ring) Slots() int { return r.slots }
