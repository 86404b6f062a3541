// Package pelifo implements the Probabilistic Escape LIFO replacement
// policy of Chaudhuri (MICRO 2009), the second temporal-management baseline
// in the STEM evaluation.
//
// PeLIFO ranks the blocks of a set by fill order (a "fill stack": position 0
// is the most recent fill; hits do not reorder the stack). The policy learns
// a cache-wide escape-depth histogram — for each evicted block, the deepest
// fill-stack position at which it still received a hit — to estimate how
// deep into the stack blocks keep "escaping". Blocks deeper than the last
// useful depth rarely hit again, so the preferred eviction position is just
// past that depth — close to the top of the stack when the workload thrashes
// (which protects the resident working set, LIFO-style) and at the bottom
// when reuse extends through the whole stack (which degrades to FIFO). A
// set-dueling safety net against plain LRU (as in the original proposal's
// dueling among policy variants) keeps the pathological cases bounded.
//
// This is a faithful-in-spirit simplification of the full proposal (which
// tracks several candidate escape points and duels among them); the
// simplification is recorded in DESIGN.md §3.3. Its aggregate behaviour —
// strong on thrashing workloads, weaker than LRU on deep-recency workloads
// unless the duel rescues it — is what the STEM paper's comparison relies
// on.
package pelifo

import (
	"fmt"

	"repro/internal/policy"
	"repro/internal/sim"
)

// The simplified learner's constants (DESIGN.md §3.3 lists each baseline's).
const (
	// epochFills is how many fills pass between re-learning the preferred
	// eviction position.
	epochFills = 4096
	// escapeShare sets the escape-mass threshold: a fill-stack depth is
	// useless once fewer than 1/escapeShare of the epoch's evicted blocks
	// still escaped to it.
	escapeShare = 64
)

type line struct {
	tag   uint64
	valid bool
	dirty bool
	// fillPos is the block's fill-stack position: 0 = most recent fill.
	// Positions are a permutation of 0..occupancy-1 within a set.
	fillPos int
	// deepHit is the deepest fill-stack position at which this block has
	// received a hit, or -1 if it has never hit. It is the block's escape
	// depth, credited to the learner when the block is evicted.
	deepHit int
}

type pelifoSet struct {
	lines []line
	lru   policy.Policy // recency ranking for LRU leaders and tie-breaks
	occ   int
}

// Cache is a PeLIFO-managed set-associative cache implementing
// sim.Simulator.
type Cache struct {
	geom  sim.Geometry
	sets  []pelifoSet
	duel  *policy.Duel // flavour A is LRU, B the learned fill-stack position
	stats sim.Stats

	// Learning state. escAt[p] counts evicted blocks whose deepest hit was
	// at fill-stack position p; escSamples counts all evictions (including
	// never-hit blocks). Measuring escape depth per evicted block rather
	// than raw hit counts keeps the learner stable: resident blocks that
	// keep hitting at depth never enter the histogram, so the policy does
	// not talk itself out of protecting them.
	escAt      []uint64
	escSamples uint64
	fills      uint64 // fills since epoch start
	evictPos   int    // learned preferred eviction position
}

// New constructs a PeLIFO cache. It panics on invalid geometry or fewer than
// two sets.
func New(geom sim.Geometry, seed uint64) *Cache {
	if err := geom.Validate(); err != nil {
		// invariant: experiments.NewScheme validates the geometry before constructing schemes.
		panic(fmt.Sprintf("pelifo: %v", err))
	}
	c := &Cache{
		geom:     geom,
		sets:     make([]pelifoSet, geom.Sets),
		duel:     policy.NewDuel(geom.Sets),
		escAt:    make([]uint64, geom.Ways),
		evictPos: geom.Ways - 1, // start FIFO-like (closest to LRU)
	}
	for i := range c.sets {
		rng := sim.NewRNG(seed ^ uint64(i)*0x9e3779b97f4a7c15)
		c.sets[i] = pelifoSet{
			lines: make([]line, geom.Ways),
			lru:   policy.New(policy.LRU, geom.Ways, rng),
		}
	}
	return c
}

// Name implements sim.Simulator.
func (c *Cache) Name() string { return "PELIFO" }

// Geometry implements sim.Simulator.
func (c *Cache) Geometry() sim.Geometry { return c.geom }

// Stats implements sim.Simulator.
func (c *Cache) Stats() sim.Stats { return c.stats }

// ResetStats implements sim.Simulator.
func (c *Cache) ResetStats() { c.stats = sim.Stats{} }

// EvictPos exposes the learned eviction position (for tests).
func (c *Cache) EvictPos() int { return c.evictPos }

// Access implements sim.Simulator.
func (c *Cache) Access(a sim.Access) sim.Outcome {
	idx := c.geom.Index(a.Block)
	tag := c.geom.Tag(a.Block)
	s := &c.sets[idx]

	var out sim.Outcome
	for w := range s.lines {
		l := &s.lines[w]
		if l.valid && l.tag == tag {
			out.Hit = true
			if l.fillPos > l.deepHit {
				l.deepHit = l.fillPos
			}
			s.lru.OnHit(w)
			if a.Write {
				l.dirty = true
			}
			c.stats.Record(out)
			return out
		}
	}

	// Miss: duel bookkeeping, then fill.
	c.duel.Miss(idx)
	way := c.victimWay(idx)
	v := &s.lines[way]
	oldPos := s.occ // cold fill: new block conceptually pushes whole stack
	if v.valid {
		oldPos = v.fillPos
		if v.dirty {
			out.Writeback = true
		}
		c.escSamples++
		if v.deepHit >= 0 {
			c.escAt[v.deepHit]++
		}
	} else {
		s.occ++
	}
	// Shift fill positions above the vacated slot down by one; the new block
	// takes the top of the stack.
	for w := range s.lines {
		l := &s.lines[w]
		if l.valid && w != way && l.fillPos < oldPos {
			l.fillPos++
		}
	}
	*v = line{tag: tag, valid: true, dirty: a.Write, fillPos: 0, deepHit: -1}
	s.lru.OnInsert(way)

	c.fills++
	if c.fills >= epochFills {
		c.relearn()
	}
	c.stats.Record(out)
	return out
}

// victimWay picks the way to replace in set idx.
func (c *Cache) victimWay(idx int) int {
	s := &c.sets[idx]
	for w := range s.lines {
		if !s.lines[w].valid {
			return w
		}
	}
	if !c.duel.B(idx) {
		return s.lru.Victim()
	}
	// PeLIFO: evict the block at the learned fill-stack position.
	target := c.evictPos
	if target >= s.occ {
		target = s.occ - 1
	}
	for w := range s.lines {
		if s.lines[w].valid && s.lines[w].fillPos == target {
			return w
		}
	}
	// invariant: positions are a permutation of 0..occ-1, so this is
	// unreachable; keep a loud failure rather than silent corruption.
	panic("pelifo: fill-stack positions corrupted")
}

// relearn recomputes the preferred eviction position from the epoch's
// escape histogram: the position just past the deepest depth a meaningful
// fraction of evicted blocks still escaped to. With no eviction evidence the
// current position is kept.
func (c *Cache) relearn() {
	c.fills = 0
	if c.escSamples < 64 {
		return // not enough evidence to move
	}
	thresh := c.escSamples / escapeShare
	deepest := -1
	for p := len(c.escAt) - 1; p >= 0; p-- {
		if c.escAt[p] > thresh {
			deepest = p
			break
		}
	}
	c.evictPos = deepest + 1
	if c.evictPos > c.geom.Ways-1 {
		c.evictPos = c.geom.Ways - 1
	}
	// Exponential decay so the learner tracks phase changes.
	for p := range c.escAt {
		c.escAt[p] /= 2
	}
	c.escSamples /= 2
}
