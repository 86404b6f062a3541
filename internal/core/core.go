// Package core implements STEM — SpatioTemporally Managed Last Level
// Caches — the primary contribution of Zhan, Jiang and Seth (MICRO 2010).
//
// STEM manages LLC capacity in both dimensions at the set level:
//
//   - Temporal: each set duels LRU against BIP individually. A shadow set of
//     hashed victim tags runs the opposite policy on the set's eviction
//     stream; when the temporal saturating counter SC_T shows the shadow
//     winning, the set swaps policies (paper §4.3-4.4).
//
//   - Spatial: the spatial saturating counter SC_S, driven by shadow hits
//     against LLC hits, classifies sets as takers (saturated — doubling the
//     set's capacity would pay) or givers (MSB clear — the set hits happily
//     within its local capacity). A small hardware heap tracks the least
//     saturated uncoupled givers; when an uncoupled taker must evict, it is
//     coupled with the least-saturated giver through an association table,
//     and from then on spills its victims into the giver instead of dropping
//     them off-chip (paper §4.5).
//
// Unlike SBC, receiving is *conditional*: a giver accepts a foreign block
// only while its own SC_S MSB stays clear, and the insertion position of a
// received block follows the giver's currently winning policy (§4.6; the
// BIPReceive ablation ranks it as BIP would instead). A
// taker whose MSB falls clear stops spilling. The pair dissolves once the
// giver has evicted every cooperatively cached block (§4.7).
//
// All of that is Engine, which decides in set indices and way numbers and
// stores nothing. Cache hosts it over a block-tag array (the simulator);
// internal/stemcache hosts one per shard over key-value entries.
package core

import (
	"fmt"

	"repro/internal/hashfn"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sim"
)

// Config parameterizes a STEM cache. Defaults (applied by New) follow the
// paper's Table 3.
type Config struct {
	// CounterBits is k, the width of the SC_S/SC_T saturating counters.
	// Default: 4.
	CounterBits int
	// SpatialShift is n: SC_S is decremented once per 2^n LLC hits (in
	// expectation, implemented probabilistically). Default: 3.
	SpatialShift int
	// SignatureBits is m, the shadow-tag width. Default: 10.
	SignatureBits int
	// SelectorSize is the giver-heap capacity. Default: 16.
	SelectorSize int
	// Seed drives every probabilistic device in the cache.
	Seed uint64

	// Ablation switches (all false in the paper's design; used by the
	// ablation experiments to isolate each mechanism's contribution).

	// DisableCoupling turns off the spatial dimension entirely: no giver
	// heap, no set pairs, no cooperative caching. What remains is a purely
	// temporal, per-set LRU/BIP dueling cache.
	DisableCoupling bool
	// DisableSwap turns off the temporal dimension: SC_T never swaps a
	// set's policy. What remains is a purely spatial cooperative cache with
	// STEM's shadow-set demand metric.
	DisableSwap bool
	// UnconstrainedReceive removes the paper's §4.6 receiving constraint: a
	// giver accepts foreign blocks regardless of its own spatial counter
	// and a taker spills regardless of its role trend — the SBC behaviour
	// the paper argues pollutes givers.
	UnconstrainedReceive bool
	// BIPReceive ranks a received block as BIP ranks a fill — at the
	// giver's LRU end, except one insertion in policy.BIPEpsilon — instead
	// of at the giver's winning-policy rank (§4.6, MRU under LRU). The
	// library sets it: under a hashed key space a spilled victim shows no
	// reuse, and at MRU it pushes out the giver's live entries.
	BIPReceive bool
}

func (c *Config) applyDefaults() {
	if c.CounterBits <= 0 {
		c.CounterBits = 4
	}
	if c.SpatialShift <= 0 {
		c.SpatialShift = 3
	}
	if c.SignatureBits <= 0 {
		c.SignatureBits = 10
	}
	if c.SelectorSize <= 0 {
		c.SelectorSize = 16
	}
}

// Per-line flag bits, kept beside the block addresses in a parallel array.
const (
	lineValid uint8 = 1 << iota
	lineCC          // the CC bit: cooperatively cached (foreign) block
	lineDirty
)

// Cache is a STEM-managed LLC implementing sim.Simulator: a tag array and
// the outcome counters around one Engine, which makes every decision.
type Cache struct {
	geom sim.Geometry
	eng  Engine
	// blocks and flags are Sets × Ways, set-major: the full block address of
	// each line (giver sets hold foreign blocks) and its line* bits.
	blocks []uint64
	flags  []uint8
	hash   *hashfn.Hash
	stats  sim.Stats
}

// New constructs a STEM cache. It panics on invalid geometry.
func New(geom sim.Geometry, cfg Config) *Cache {
	if err := geom.Validate(); err != nil {
		// invariant: geometry comes from the experiment harness, which validates it before constructing schemes.
		panic(fmt.Sprintf("core: %v", err))
	}
	return &Cache{
		geom:   geom,
		eng:    NewEngine(cfg, geom.Sets, geom.Ways, 0),
		blocks: make([]uint64, geom.Sets*geom.Ways),
		flags:  make([]uint8, geom.Sets*geom.Ways),
		hash:   NewSigHash(cfg),
	}
}

// Name implements sim.Simulator.
func (c *Cache) Name() string { return "STEM" }

// Geometry implements sim.Simulator.
func (c *Cache) Geometry() sim.Geometry { return c.geom }

// Stats implements sim.Simulator: the outcome counters plus the engine's
// mechanism counters.
func (c *Cache) Stats() sim.Stats {
	st, n := c.stats, c.eng.Counts()
	st.ShadowHits, st.PolicySwaps = n.ShadowHits, n.PolicySwaps
	st.Couplings, st.Decouplings = n.Couplings, n.Decouplings
	st.Spills, st.Receives = n.Spills, n.Receives
	return st
}

// ResetStats implements sim.Simulator.
func (c *Cache) ResetStats() {
	c.stats = sim.Stats{}
	c.eng.ResetCounts()
}

// PolicyKind exposes set idx's current replacement policy (tests,
// reporting).
func (c *Cache) PolicyKind(idx int) policy.Kind { return c.eng.PolicyKind(idx) }

// Partner exposes set idx's association; it equals idx when uncoupled.
func (c *Cache) Partner(idx int) int { return c.eng.Partner(idx) }

// Role exposes set idx's association role: "uncoupled", "taker" or "giver".
func (c *Cache) Role(idx int) string { return c.eng.Role(idx) }

// Counters exposes set idx's (SC_S, SC_T) values (tests, reporting).
func (c *Cache) Counters(idx int) (scS, scT int) {
	m := c.eng.Monitor(idx)
	return m.ScS, m.ScT
}

// SetObserver implements obs.Instrumented: it attaches (or, with nil,
// detaches) a mechanism-event sink.
func (c *Cache) SetObserver(o obs.Observer) { c.eng.SetObserver(o) }

// Introspect implements obs.Introspector: a live census of association
// roles and per-set replacement policies.
func (c *Cache) Introspect() obs.SchemeState {
	n := c.eng.Census()
	st := obs.SchemeState{
		Takers: n.Takers, Givers: n.Givers, Coupled: n.Takers + n.Givers,
		PolicySets: make(map[string]int, 2),
	}
	if n.BIPSets > 0 {
		st.PolicySets[policy.BIP.String()] = n.BIPSets
	}
	if lru := c.geom.Sets - n.BIPSets; lru > 0 {
		st.PolicySets[policy.LRU.String()] = lru
	}
	return st
}

// set returns set idx's ways: block addresses and flags.
func (c *Cache) set(idx int) ([]uint64, []uint8) {
	lo, hi := idx*c.geom.Ways, (idx+1)*c.geom.Ways
	return c.blocks[lo:hi:hi], c.flags[lo:hi:hi]
}

// sigOf computes the m-bit shadow signature of a block's tag.
func (c *Cache) sigOf(block uint64) uint32 { return c.hash.Sum(c.geom.Tag(block)) }

// Access implements sim.Simulator.
func (c *Cache) Access(a sim.Access) sim.Outcome {
	c.eng.Tick()
	idx := c.geom.Index(a.Block)
	blocks, flags := c.set(idx)

	var out sim.Outcome
	// 1. Local lookup.
	if w := find(blocks, flags, a.Block, lineValid); w >= 0 {
		out.Hit = true
		if a.Write {
			flags[w] |= lineDirty
		}
		c.eng.Hit(idx, w)
		c.stats.Record(out)
		return out
	}

	// 2. A coupled taker's blocks may be cooperatively cached in its giver.
	if g := c.eng.GiverOf(idx); g >= 0 {
		out.Secondary = true
		gb, gf := c.set(g)
		if w := find(gb, gf, a.Block, lineValid|lineCC); w >= 0 {
			out.Hit = true
			out.SecondaryHit = true
			if a.Write {
				gf[w] |= lineDirty
			}
			c.eng.Touch(g, w)
			c.stats.Record(out)
			return out
		}
	}

	// 3. True miss: consult the shadow set, then fill locally.
	c.eng.Miss(idx, c.sigOf(a.Block))
	way := c.freeWay(idx, flags)
	if way < 0 {
		way = c.eng.Victim(idx)
		c.vacate(idx, way, &out)
	}
	blocks[way], flags[way] = a.Block, lineValid
	if a.Write {
		flags[way] |= lineDirty
	}
	c.eng.Fill(idx, way)
	c.stats.Record(out)
	return out
}

// vacate moves the block in (idx, way) where the engine sends it: into the
// coupled giver as a cooperatively cached block, or off chip with writeback
// accounting.
func (c *Cache) vacate(idx, way int, out *sim.Outcome) {
	blocks, flags := c.set(idx)
	block, f := blocks[way], flags[way]
	g := c.eng.Evict(idx, c.sigOf(block), f&lineCC != 0)
	if g < 0 {
		if f&lineDirty != 0 {
			out.Writeback = true
		}
		return
	}
	gb, gf := c.set(g)
	gw := c.freeWay(g, gf)
	if gw < 0 {
		gw = c.eng.Victim(g)
		c.vacate(g, gw, out)
	}
	gb[gw], gf[gw] = block, f|lineCC
	c.eng.FillSpill(g, gw)
}

// find returns the way holding block as a valid line whose valid and CC bits
// are exactly want, or -1. An invalid way keeps a stale address, so the flags
// decide on a match.
func find(blocks []uint64, flags []uint8, block uint64, want uint8) int {
	for w, b := range blocks {
		if b == block && flags[w]&(lineValid|lineCC) == want {
			return w
		}
	}
	return -1
}

// freeWay returns the first invalid way of set idx, whose flags are flags,
// or -1 when the set is full. Lines are never invalidated, so the engine
// ranks exactly the valid ways: once it ranks them all, there is no invalid
// way to scan for.
func (c *Cache) freeWay(idx int, flags []uint8) int {
	if c.eng.Full(idx) {
		return -1
	}
	for w, f := range flags {
		if f&lineValid == 0 {
			return w
		}
	}
	return -1
}
