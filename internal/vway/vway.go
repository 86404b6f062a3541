// Package vway implements the V-Way (Variable-Way) cache of Qureshi,
// Thompson and Patt (ISCA 2005), the first spatial-management baseline of
// the STEM evaluation.
//
// A V-Way cache decouples the tag store from the data store. The tag store
// has TDR (tag-to-data ratio, typically 2) times as many tag entries per set
// as there are data lines per set on average, and any tag entry can point at
// any data line through a forward pointer (the data line holds the reverse
// pointer). Sets whose working set is large can therefore hold more resident
// blocks than the nominal associativity — capacity flows to them implicitly,
// demand-driven by their higher fill rate — while tag entries are recycled
// locally with LRU and data lines are recycled globally with a
// frequency-style "reuse replacement": a global pointer sweeps the data
// store, decrementing 2-bit reuse counters, and claims the first line whose
// counter is zero.
package vway

import (
	"fmt"

	"repro/internal/policy"
	"repro/internal/sim"
)

// The paper's constants.
const (
	// tagToData is the TDR: tag entries per data line.
	tagToData = 2
	// reuseMax saturates the per-line 2-bit reuse counter.
	reuseMax = 3
)

// MaxWays is the widest data store New accepts: its tag store, tagToData
// times as wide, must fit a recency list.
const MaxWays = sim.MaxWays / tagToData

type tagEntry struct {
	tag   uint64
	valid bool
	fptr  int // data line id, or -1 if the entry holds no data (invalid)
}

type dataLine struct {
	rptr  int // global tag entry id, or -1 if unallocated
	reuse int
	dirty bool
}

// Cache is a V-Way cache implementing sim.Simulator. The nominal geometry's
// Ways field is the *data-store* associativity; the tag store has
// Ways*tagToData entries per set.
type Cache struct {
	geom    sim.Geometry
	tagWays int
	tags    []tagEntry // Sets * tagWays, set-major
	tagLRU  []policy.Policy
	data    []dataLine // Sets * Ways
	ptr     int        // global replacement sweep pointer
	stats   sim.Stats
}

// New constructs a V-Way cache. It panics on invalid geometry or more than
// MaxWays ways.
func New(geom sim.Geometry, seed uint64) *Cache {
	if err := geom.Validate(); err != nil {
		// invariant: experiments.NewScheme validates the geometry before constructing schemes.
		panic(fmt.Sprintf("vway: %v", err))
	}
	if geom.Ways > MaxWays {
		// invariant: experiments.NewScheme refuses VWAY above MaxWays ways.
		panic(fmt.Sprintf("vway: %d ways exceed MaxWays %d", geom.Ways, MaxWays))
	}
	c := &Cache{
		geom:    geom,
		tagWays: geom.Ways * tagToData,
		tags:    make([]tagEntry, geom.Sets*geom.Ways*tagToData),
		tagLRU:  make([]policy.Policy, geom.Sets),
		data:    make([]dataLine, geom.Sets*geom.Ways),
	}
	for i := range c.tags {
		c.tags[i].fptr = -1
	}
	for i := range c.data {
		c.data[i].rptr = -1
	}
	for s := range c.tagLRU {
		c.tagLRU[s] = policy.New(policy.LRU, c.tagWays, sim.NewRNG(seed^uint64(s)))
	}
	return c
}

// Name implements sim.Simulator.
func (c *Cache) Name() string { return "VWAY" }

// Geometry implements sim.Simulator.
func (c *Cache) Geometry() sim.Geometry { return c.geom }

// Stats implements sim.Simulator.
func (c *Cache) Stats() sim.Stats { return c.stats }

// ResetStats implements sim.Simulator.
func (c *Cache) ResetStats() { c.stats = sim.Stats{} }

// TagWays returns the tag-store associativity (Ways × TDR).
func (c *Cache) TagWays() int { return c.tagWays }

// ResidentBlocks returns the number of data-backed blocks currently mapping
// to set idx; it can exceed the nominal associativity — that is the point of
// the scheme.
func (c *Cache) ResidentBlocks(idx int) int {
	n := 0
	for w := 0; w < c.tagWays; w++ {
		e := &c.tags[idx*c.tagWays+w]
		if e.valid && e.fptr >= 0 {
			n++
		}
	}
	return n
}

// Access implements sim.Simulator.
func (c *Cache) Access(a sim.Access) sim.Outcome {
	idx := c.geom.Index(a.Block)
	tag := c.geom.Tag(a.Block)
	base := idx * c.tagWays

	var out sim.Outcome
	for w := 0; w < c.tagWays; w++ {
		e := &c.tags[base+w]
		if e.valid && e.tag == tag && e.fptr >= 0 {
			out.Hit = true
			d := &c.data[e.fptr]
			if d.reuse < reuseMax {
				d.reuse++
			}
			if a.Write {
				d.dirty = true
			}
			c.tagLRU[idx].OnHit(w)
			c.stats.Record(out)
			return out
		}
	}

	// Miss. Find a tag entry: an invalid one if possible, else the set-local
	// LRU victim whose data line is reallocated directly to the new block.
	way := -1
	for w := 0; w < c.tagWays; w++ {
		if !c.tags[base+w].valid {
			way = w
			break
		}
	}
	var lineID int
	if way >= 0 {
		// Tag available: claim a data line through global reuse replacement.
		lineID = c.claimLine(&out)
	} else {
		way = c.tagLRU[idx].Victim()
		victim := &c.tags[base+way]
		lineID = victim.fptr
		if c.data[lineID].dirty {
			out.Writeback = true
		}
	}
	e := &c.tags[base+way]
	*e = tagEntry{tag: tag, valid: true, fptr: lineID}
	c.data[lineID] = dataLine{rptr: base + way, reuse: 0, dirty: a.Write}
	c.tagLRU[idx].OnInsert(way)
	c.stats.Record(out)
	return out
}

// claimLine runs the global reuse-replacement sweep and returns a free data
// line, invalidating the tag entry it previously backed if any.
func (c *Cache) claimLine(out *sim.Outcome) int {
	for {
		d := &c.data[c.ptr]
		if d.rptr < 0 {
			// Unallocated (cold) line: take it without a victim.
			id := c.ptr
			c.advance()
			return id
		}
		if d.reuse == 0 {
			id := c.ptr
			victim := d.rptr
			set := victim / c.tagWays
			way := victim % c.tagWays
			c.tags[victim].valid = false
			c.tags[victim].fptr = -1
			c.tagLRU[set].OnInvalidate(way)
			if d.dirty {
				out.Writeback = true
			}
			d.rptr = -1
			d.dirty = false
			c.advance()
			return id
		}
		d.reuse--
		c.advance()
	}
}

func (c *Cache) advance() {
	c.ptr++
	if c.ptr == len(c.data) {
		c.ptr = 0
	}
}

// checkIntegrity validates the fptr/rptr bijection; tests call it through
// the export below.
func (c *Cache) checkIntegrity() error {
	seen := make(map[int]int) // data line -> tag id
	for t := range c.tags {
		e := &c.tags[t]
		if !e.valid {
			if e.fptr != -1 {
				return fmt.Errorf("invalid tag %d has fptr %d", t, e.fptr)
			}
			continue
		}
		if e.fptr < 0 || e.fptr >= len(c.data) {
			return fmt.Errorf("tag %d fptr %d out of range", t, e.fptr)
		}
		if prev, dup := seen[e.fptr]; dup {
			return fmt.Errorf("data line %d claimed by tags %d and %d", e.fptr, prev, t)
		}
		seen[e.fptr] = t
		if c.data[e.fptr].rptr != t {
			return fmt.Errorf("tag %d -> line %d but rptr = %d", t, e.fptr, c.data[e.fptr].rptr)
		}
	}
	for d := range c.data {
		if c.data[d].rptr >= 0 {
			if _, ok := seen[d]; !ok {
				return fmt.Errorf("line %d rptr %d not backed by a valid tag", d, c.data[d].rptr)
			}
		}
	}
	return nil
}
