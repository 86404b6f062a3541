// Package sbc implements the Dynamic Set Balancing Cache of Rolán, Fraguela
// and Doallo (MICRO 2009), the second spatial-management baseline of the
// STEM evaluation.
//
// SBC measures each set's "saturation level" — a saturating counter
// incremented on misses and decremented on hits, so it approximates
// misses−hits. A set whose counter saturates (a source) is paired, through a
// small Destination Set Selector holding the least-saturated unassociated
// sets, with a lowly saturated destination set. While associated, every
// victim the source evicts is displaced into the destination at the MRU
// position, and lookups that miss in the source probe the destination
// (paying a second tag-store access). Displaced blocks evicted from the
// destination leave the chip; when the destination holds no displaced blocks
// any more, the pair dissolves.
//
// Two behaviours matter for the STEM comparison (paper §4.6): SBC's
// receiving is *unconditional* — the destination accepts displaced blocks at
// MRU regardless of its own current demand — and its saturation metric is an
// indirect proxy for capacity demand. STEM's receiving constraint and
// shadow-set metric are the corresponding fixes; this implementation
// deliberately reproduces the original behaviours.
package sbc

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/selector"
	"repro/internal/sim"
)

// selectorSize is the Destination Set Selector's capacity. A set saturates
// at 2×Ways; it posts itself to the selector while its saturation is at most
// a quarter of that, and a popped candidate becomes a destination only at
// half or less (DESIGN.md §5 lists each baseline's constants).
const selectorSize = 16

type line struct {
	block   uint64 // full block address (lines may hold foreign blocks)
	valid   bool
	dirty   bool
	foreign bool // displaced here by the associated source set
}

type sbcSet struct {
	lines   []line
	pol     policy.Policy
	sat     int
	partner int // associated set, or -1
	// source is true if this set displaces into partner, false if it
	// receives; meaningless when partner < 0.
	source  bool
	foreign int // count of foreign-valid lines (destinations only)
	// coupledAt is the tick the current association formed (observability
	// bookkeeping, maintained only while an observer is attached).
	coupledAt uint64
}

// Cache is an SBC-managed cache implementing sim.Simulator.
type Cache struct {
	geom   sim.Geometry
	satMax int // the saturation counter's ceiling, 2×Ways
	sets   []sbcSet
	dss    *selector.Heap
	stats  sim.Stats
	// tick counts every access over the cache's lifetime (never reset); it
	// timestamps mechanism events.
	tick uint64
	// observer receives mechanism events; nil (the default) restores the
	// uninstrumented hot path.
	observer obs.Observer
}

// New constructs an SBC cache. It panics on invalid geometry.
func New(geom sim.Geometry, seed uint64) *Cache {
	if err := geom.Validate(); err != nil {
		// invariant: experiments.NewScheme validates the geometry before constructing schemes.
		panic(fmt.Sprintf("sbc: %v", err))
	}
	c := &Cache{
		geom:   geom,
		satMax: 2 * geom.Ways,
		sets:   make([]sbcSet, geom.Sets),
		dss:    selector.New(selectorSize),
	}
	for i := range c.sets {
		c.sets[i] = sbcSet{
			lines:   make([]line, geom.Ways),
			pol:     policy.New(policy.LRU, geom.Ways, sim.NewRNG(seed^uint64(i)*0x9e3779b97f4a7c15)),
			partner: -1,
		}
	}
	return c
}

// Name implements sim.Simulator.
func (c *Cache) Name() string { return "SBC" }

// Geometry implements sim.Simulator.
func (c *Cache) Geometry() sim.Geometry { return c.geom }

// Stats implements sim.Simulator.
func (c *Cache) Stats() sim.Stats { return c.stats }

// ResetStats implements sim.Simulator.
func (c *Cache) ResetStats() { c.stats = sim.Stats{} }

// Saturation exposes set idx's saturation level (for tests).
func (c *Cache) Saturation(idx int) int { return c.sets[idx].sat }

// Partner exposes set idx's association (for tests); -1 if unassociated.
func (c *Cache) Partner(idx int) int { return c.sets[idx].partner }

// SetObserver implements obs.Instrumented: it attaches (or, with nil,
// detaches) a mechanism-event sink. SBC has one saturation counter per set;
// events carry it in the ScS field.
func (c *Cache) SetObserver(o obs.Observer) { c.observer = o }

// Introspect implements obs.Introspector: sources map to the taker role,
// destinations to the giver role. Every SBC set runs LRU.
func (c *Cache) Introspect() obs.SchemeState {
	st := obs.SchemeState{PolicySets: map[string]int{"LRU": len(c.sets)}}
	for i := range c.sets {
		s := &c.sets[i]
		if s.partner < 0 {
			continue
		}
		if s.source {
			st.Takers++
		} else {
			st.Givers++
		}
	}
	st.Coupled = st.Takers + st.Givers
	return st
}

// Access implements sim.Simulator.
func (c *Cache) Access(a sim.Access) sim.Outcome {
	c.tick++
	idx := c.geom.Index(a.Block)
	s := &c.sets[idx]

	var out sim.Outcome
	if w := s.find(a.Block); w >= 0 {
		out.Hit = true
		s.pol.OnHit(w)
		if a.Write {
			s.lines[w].dirty = true
		}
		c.onHit(idx)
		c.stats.Record(out)
		return out
	}

	// Probe the partner if this set is an associated source: its displaced
	// blocks live there.
	if s.partner >= 0 && s.source {
		out.Secondary = true
		p := &c.sets[s.partner]
		if w := p.find(a.Block); w >= 0 {
			out.Hit = true
			out.SecondaryHit = true
			p.pol.OnHit(w)
			if a.Write {
				p.lines[w].dirty = true
			}
			c.onHit(idx)
			c.stats.Record(out)
			return out
		}
	}

	c.onMiss(idx)

	// Fill into the home set; the displaced victim may travel on.
	victim, hadVictim := s.replace(a, c.geom.Ways)
	if hadVictim {
		c.handleVictim(idx, victim, &out)
	}
	c.stats.Record(out)
	return out
}

// onHit updates saturation bookkeeping for a (home-set) hit.
func (c *Cache) onHit(idx int) {
	s := &c.sets[idx]
	if s.sat > 0 {
		s.sat--
	}
	c.maybePost(idx)
}

// onMiss updates saturation and triggers association when the set saturates.
func (c *Cache) onMiss(idx int) {
	s := &c.sets[idx]
	if s.sat < c.satMax {
		s.sat++
	}
	if s.sat >= c.satMax && s.partner < 0 {
		c.tryAssociate(idx)
	}
	if s.partner < 0 {
		c.maybePost(idx)
	}
}

// maybePost keeps the Destination Set Selector tracking lowly saturated
// unassociated sets.
func (c *Cache) maybePost(idx int) {
	s := &c.sets[idx]
	if s.partner >= 0 {
		c.dss.Remove(idx)
		return
	}
	if s.sat <= c.satMax/4 {
		c.dss.Post(idx, s.sat)
	} else {
		c.dss.Remove(idx)
	}
}

// tryAssociate pairs saturated set idx with the least-saturated candidate.
func (c *Cache) tryAssociate(idx int) {
	for tries := 0; tries < selectorSize; tries++ {
		cand, _, ok := c.dss.PopMin()
		if !ok {
			return
		}
		if cand == idx {
			continue
		}
		d := &c.sets[cand]
		// Entries can be stale; re-check the live counter and availability.
		if d.partner >= 0 || d.sat > c.satMax/2 {
			continue
		}
		s := &c.sets[idx]
		s.partner, s.source = cand, true
		d.partner, d.source = idx, false
		c.dss.Remove(idx)
		c.stats.Couplings++
		if c.observer != nil {
			s.coupledAt, d.coupledAt = c.tick, c.tick
			c.observer.Event(obs.Event{
				Type: obs.EvCouple, Tick: c.tick, Set: idx, Partner: cand,
				ScS: s.sat,
			})
		}
		return
	}
}

// handleVictim routes a block evicted from set idx: sources displace it into
// their destination (unconditionally, at MRU — SBC's defining behaviour);
// everything else leaves the chip.
func (c *Cache) handleVictim(idx int, v line, out *sim.Outcome) {
	s := &c.sets[idx]
	if v.foreign {
		// A destination evicted a displaced block: it leaves the chip.
		s.foreign--
		if v.dirty {
			out.Writeback = true
		}
		if s.foreign == 0 && s.partner >= 0 && !s.source {
			c.dissolve(idx)
		}
		return
	}
	if s.partner >= 0 && s.source {
		// Displace into the destination at MRU.
		d := &c.sets[s.partner]
		v.foreign = true
		dv, hadVictim := d.insert(v, c.geom.Ways)
		d.foreign++
		c.stats.Spills++
		c.stats.Receives++
		if c.observer != nil {
			c.observer.Event(obs.Event{
				Type: obs.EvSpill, Tick: c.tick, Set: idx, Partner: s.partner,
				ScS: s.sat,
			})
			c.observer.Event(obs.Event{
				Type: obs.EvReceive, Tick: c.tick, Set: s.partner, Partner: idx,
				ScS: d.sat,
			})
		}
		if hadVictim {
			// The destination's own victim (local or foreign) leaves the
			// chip; recurse one level at most since it never spills again.
			if dv.foreign {
				d.foreign--
			}
			if dv.dirty {
				out.Writeback = true
			}
			if d.foreign == 0 {
				c.dissolve(s.partner)
			}
		}
		return
	}
	if v.dirty {
		out.Writeback = true
	}
}

// dissolve breaks the association of destination idx with its source.
func (c *Cache) dissolve(idx int) {
	d := &c.sets[idx]
	if d.partner < 0 {
		return
	}
	srcIdx := d.partner
	src := &c.sets[srcIdx]
	src.partner, src.source = -1, false
	d.partner, d.source = -1, false
	c.stats.Decouplings++
	if c.observer != nil {
		c.observer.Event(obs.Event{
			Type: obs.EvDecouple, Tick: c.tick, Set: idx, Partner: srcIdx,
			ScS: d.sat, Life: c.tick - d.coupledAt,
		})
	}
}

// find returns the way holding block, or -1.
func (s *sbcSet) find(block uint64) int {
	for w := range s.lines {
		if s.lines[w].valid && s.lines[w].block == block {
			return w
		}
	}
	return -1
}

// replace fills a new line for the missing access and returns the evicted
// line if the set was full.
func (s *sbcSet) replace(a sim.Access, ways int) (victim line, hadVictim bool) {
	nl := line{block: a.Block, valid: true, dirty: a.Write}
	return s.insert(nl, ways)
}

// insert places nl at the policy's insertion position, evicting if needed.
func (s *sbcSet) insert(nl line, ways int) (victim line, hadVictim bool) {
	way := -1
	for w := range s.lines {
		if !s.lines[w].valid {
			way = w
			break
		}
	}
	if way < 0 {
		way = s.pol.Victim()
		victim, hadVictim = s.lines[way], true
	}
	s.lines[way] = nl
	s.pol.OnInsert(way)
	return victim, hadVictim
}
