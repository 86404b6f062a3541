// Package basecache implements the conventional set-associative cache of
// paper §2.1: a fixed number of sets, each with a static associativity and
// its own replacement policy. It is both the LRU baseline of the evaluation
// and the building block DIP, DRRIP and SRRIP are assembled from.
package basecache

import (
	"fmt"

	"repro/internal/policy"
	"repro/internal/sim"
)

// Per-line flag bits, kept beside the block addresses in a parallel array.
const (
	lineValid uint8 = 1 << iota
	lineDirty
)

// Cache is a conventional set-associative cache with pluggable per-set
// replacement policies.
type Cache struct {
	name string
	geom sim.Geometry
	// blocks and flags are Sets × Ways, set-major: each line's full block
	// address and its line* bits.
	blocks []uint64
	flags  []uint8
	pols   []policy.Policy // one per set
	stats  sim.Stats
}

// PolicyFactory builds the replacement policy for one set. The RNG passed in
// is private to that set.
type PolicyFactory func(set int, ways int, rng *sim.RNG) policy.Policy

// New constructs a cache whose per-set policies come from factory. Each set
// gets an RNG derived from seed and its index. It panics on invalid geometry
// or a nil factory.
func New(name string, geom sim.Geometry, seed uint64, factory PolicyFactory) *Cache {
	if err := geom.Validate(); err != nil {
		// invariant: geometry comes from the experiment harness, which validates it before constructing schemes.
		panic(fmt.Sprintf("basecache: %v", err))
	}
	if factory == nil {
		// invariant: every caller supplies a policy factory; nil is a harness bug.
		panic("basecache: nil policy factory")
	}
	c := &Cache{
		name:   name,
		geom:   geom,
		blocks: make([]uint64, geom.Sets*geom.Ways),
		flags:  make([]uint8, geom.Sets*geom.Ways),
		pols:   make([]policy.Policy, geom.Sets),
	}
	rngs := make([]sim.RNG, geom.Sets)
	for i := range c.pols {
		rngs[i].Seed(seed ^ uint64(i)*0x9e3779b97f4a7c15)
		c.pols[i] = factory(i, geom.Ways, &rngs[i])
	}
	return c
}

// NewStatic constructs a cache where every set runs the same policy kind.
func NewStatic(name string, geom sim.Geometry, seed uint64, kind policy.Kind) *Cache {
	return New(name, geom, seed, func(_ int, ways int, rng *sim.RNG) policy.Policy {
		return policy.New(kind, ways, rng)
	})
}

// NewLRU constructs the conventional LRU cache used as the paper's baseline.
func NewLRU(geom sim.Geometry, seed uint64) *Cache {
	return NewStatic("LRU", geom, seed, policy.LRU)
}

// Name implements sim.Simulator.
func (c *Cache) Name() string { return c.name }

// Geometry implements sim.Simulator.
func (c *Cache) Geometry() sim.Geometry { return c.geom }

// Stats implements sim.Simulator.
func (c *Cache) Stats() sim.Stats { return c.stats }

// ResetStats implements sim.Simulator.
func (c *Cache) ResetStats() { c.stats = sim.Stats{} }

// set returns set idx's ways: block addresses and flags.
func (c *Cache) set(idx int) ([]uint64, []uint8) {
	lo, hi := idx*c.geom.Ways, (idx+1)*c.geom.Ways
	return c.blocks[lo:hi:hi], c.flags[lo:hi:hi]
}

// Access implements sim.Simulator.
func (c *Cache) Access(a sim.Access) sim.Outcome {
	idx := c.geom.Index(a.Block)
	blocks, flags := c.set(idx)
	pol := c.pols[idx]

	var out sim.Outcome
	if way := find(blocks, flags, a.Block); way >= 0 {
		out.Hit = true
		pol.OnHit(way)
		if a.Write {
			flags[way] |= lineDirty
		}
		c.stats.Record(out)
		return out
	}

	way := victimWay(flags, pol)
	if flags[way]&lineDirty != 0 { // lines are never invalidated, so a dirty one is valid
		out.Writeback = true
	}
	blocks[way], flags[way] = a.Block, lineValid
	if a.Write {
		flags[way] |= lineDirty
	}
	pol.OnInsert(way)
	c.stats.Record(out)
	return out
}

// Contains reports whether block is currently cached (a test-inspection
// method).
func (c *Cache) Contains(block uint64) bool {
	blocks, flags := c.set(c.geom.Index(block))
	return find(blocks, flags, block) >= 0
}

// Occupancy returns the number of valid lines in set idx.
func (c *Cache) Occupancy(idx int) int {
	n := 0
	_, flags := c.set(idx)
	for _, f := range flags {
		if f&lineValid != 0 {
			n++
		}
	}
	return n
}

// PolicyKind returns the replacement-policy kind of set idx.
func (c *Cache) PolicyKind(idx int) policy.Kind { return c.pols[idx].Kind() }

// find returns the valid way holding block, or -1. An invalid way keeps a
// stale address, so the flag decides on a match.
func find(blocks []uint64, flags []uint8, block uint64) int {
	for w, b := range blocks {
		if b == block && flags[w]&lineValid != 0 {
			return w
		}
	}
	return -1
}

// victimWay returns an invalid way if one exists, else the policy's victim.
// Lines are never invalidated, so the policy ranks exactly the valid ways:
// once it ranks them all, there is no invalid way to scan for.
func victimWay(flags []uint8, pol policy.Policy) int {
	if pol.Len() < len(flags) {
		for w, f := range flags {
			if f&lineValid == 0 {
				return w
			}
		}
	}
	v := pol.Victim()
	if v < 0 {
		// invariant: a full set always has a victim; a policy that lost
		// track of its ways is a scheme bug — fail loudly rather than
		// corrupt state.
		panic("basecache: full set but policy reports no victim")
	}
	return v
}
