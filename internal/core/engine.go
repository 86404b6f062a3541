package core

import (
	"repro/internal/hashfn"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/selector"
	"repro/internal/sim"
)

// role of a set in an association.
type role uint8

const (
	uncoupled role = iota
	taker
	giver
)

// Spatial classification labels for class-change events.
const (
	classNeutral int8 = iota
	classTaker
	classGiver
)

func className(k int8) string {
	switch k {
	case classTaker:
		return "taker"
	case classGiver:
		return "giver"
	default:
		return "neutral"
	}
}

// ctlSet is one set's control state: everything STEM keeps per set that is
// not the payload.
type ctlSet struct {
	pol policy.Recency
	mon Monitor
	// rng drives the BIP insertions of pol and of the shadow's policy; both
	// hold its address, so Engine.sets is never resized.
	rng sim.RNG
	// partner is the coupled set's index, or the set's own index when
	// uncoupled (the paper's association-table convention).
	partner   int
	foreign   int    // cooperatively cached entries resident here (givers only)
	coupledAt uint64 // tick at which the current association formed
	role      role
	klass     int8 // last reported spatial classification
}

// Counts are the mechanism counters an Engine accumulates.
type Counts struct {
	ShadowHits  uint64 // misses whose signature hit the shadow directory
	PolicySwaps uint64 // set-level LRU<->BIP swaps
	Couplings   uint64 // taker-giver pairs formed
	Decouplings uint64 // pairs dissolved after the giver drained
	Spills      uint64 // victims placed cooperatively instead of evicted
	Receives    uint64 // entries accepted by giver sets (== Spills)
}

// Census is a walk over every set's control state: the one role count behind
// the simulator's Introspect and the library's Demand and Stats gauges.
type Census struct {
	// Takers and Givers count sets by association role (coupled sets only).
	Takers, Givers int
	// TakerClass and GiverClass count sets by what SC_S says right now:
	// saturated, and MSB clear. A fresh engine reports every set a giver.
	TakerClass, GiverClass int
	// BIPSets counts sets currently running BIP; the rest run LRU.
	BIPSets int
	// ScSSum is the sum of every SC_S; ScSMax its ceiling, sets × (2^k − 1).
	ScSSum, ScSMax uint64
}

// Engine is the STEM control loop (paper §4.2-4.7) with the storage taken
// out. It owns every per-set control field — replacement policy, demand
// monitor, association, foreign count — plus the giver heap, the spatial
// RNG, the mechanism counters and the event stream, and it speaks only in
// set indices and way numbers. A host (core.Cache with block tags,
// stemcache with key-value entries) keeps the payload array and asks:
//
//	Hit / Touch      a lookup found (set, way)
//	Miss             nothing found; here is the tag's shadow signature
//	Victim           the set is full: which way goes
//	Evict            the entry in that way: spill it (to which set) or drop it
//	Fill             a new entry now sits in (set, way)
//	Remove           the host dropped an entry itself (delete, expiry)
//
// An Engine is a single-goroutine state machine; hosts that share one across
// goroutines guard it with their own lock.
type Engine struct {
	cfg   Config
	cgeom CounterGeom
	sets  []ctlSet
	heap  *selector.Heap
	rng   sim.RNG // drives the 1/2^n spatial decrement
	// decMask is 2^n − 1: SC_S decrements on a hit whose draw has those bits
	// clear.
	decMask uint64
	n       Counts
	// tick counts host operations over the engine's lifetime (never reset);
	// it timestamps mechanism events.
	tick uint64
	// observer receives mechanism events; nil (the default) restores the
	// uninstrumented path.
	observer obs.Observer
	base     int // global id of set 0, added to every set index in an event
}

// NewEngine builds the control state for sets × ways with cfg's defaults
// applied. shard numbers the engine among its host's engines (0 for a host
// with one): it salts the spatial RNG and offsets per-set seeds and event set
// ids by shard × sets, so shards draw independent streams and report global
// set ids.
func NewEngine(cfg Config, sets, ways, shard int) Engine {
	cfg.applyDefaults()
	e := Engine{
		cfg:     cfg,
		cgeom:   NewCounterGeom(cfg.CounterBits),
		sets:    make([]ctlSet, sets),
		heap:    selector.New(cfg.SelectorSize),
		decMask: 1<<uint(cfg.SpatialShift) - 1,
		base:    shard * sets,
	}
	e.rng.Seed(cfg.Seed ^ 0xdecaf ^ uint64(shard)*0x9e3779b97f4a7c15)
	// One slab per kind of cell, carved per set: a set's recency links and
	// its shadow's sit side by side.
	links := make([]policy.Link, 2*sets*ways)
	cells := make([]uint64, sets*ways)
	for i := range e.sets {
		s := &e.sets[i]
		s.rng.Seed(cfg.Seed ^ uint64(e.base+i)*0x9e3779b97f4a7c15)
		s.pol = policy.MakeRecency(policy.LRU, links[:ways:ways], &s.rng)
		s.mon.Shadow = shadowOver(cells[:ways:ways], links[ways:2*ways:2*ways], policy.LRU, &s.rng)
		s.partner = i
		links, cells = links[2*ways:], cells[ways:]
	}
	return e
}

// NewSigHash builds the shadow-signature hash for cfg (defaults applied): m
// bits wide, seeded like every other device. Hosts feed it the tag bits of a
// block address or key hash and pass the result to Miss and Evict.
func NewSigHash(cfg Config) *hashfn.Hash {
	cfg.applyDefaults()
	return hashfn.New(cfg.SignatureBits, cfg.Seed^0x5717)
}

// Tick advances the event clock; hosts call it once per operation.
func (e *Engine) Tick() { e.tick++ }

// Counts returns the mechanism counters accumulated so far.
func (e *Engine) Counts() Counts { return e.n }

// ResetCounts zeroes the mechanism counters without disturbing control
// state (used to discard warm-up).
func (e *Engine) ResetCounts() { e.n = Counts{} }

// Geom returns the counter geometry derived from the configured width.
func (e *Engine) Geom() CounterGeom { return e.cgeom }

// Monitor exposes set idx's demand monitor (tests, reporting).
func (e *Engine) Monitor(idx int) *Monitor { return &e.sets[idx].mon }

// PolicyKind exposes set idx's current replacement policy.
func (e *Engine) PolicyKind(idx int) policy.Kind { return e.sets[idx].pol.Kind() }

// Partner exposes set idx's association; it equals idx when uncoupled.
func (e *Engine) Partner(idx int) int { return e.sets[idx].partner }

// Role exposes set idx's association role: "uncoupled", "taker" or "giver".
func (e *Engine) Role(idx int) string {
	switch e.sets[idx].role {
	case taker:
		return "taker"
	case giver:
		return "giver"
	default:
		return "uncoupled"
	}
}

// GiverOf returns the giver set coupled to taker idx — where a lookup that
// missed in idx probes next — or -1 when idx is not a taker.
func (e *Engine) GiverOf(idx int) int {
	if s := &e.sets[idx]; s.role == taker {
		return s.partner
	}
	return -1
}

// SetObserver attaches (or, with nil, detaches) a mechanism-event sink.
// Attaching re-baselines every set's spatial classification so only
// subsequent changes are reported.
func (e *Engine) SetObserver(o obs.Observer) {
	e.observer = o
	if o == nil {
		return
	}
	for i := range e.sets {
		e.sets[i].klass = e.classOf(&e.sets[i])
	}
}

// Census counts roles, classifications and policies across all sets.
func (e *Engine) Census() Census {
	c := Census{ScSMax: uint64(len(e.sets)) * uint64(e.cgeom.Max)}
	for i := range e.sets {
		s := &e.sets[i]
		switch s.role {
		case taker:
			c.Takers++
		case giver:
			c.Givers++
		}
		switch e.classOf(s) {
		case classTaker:
			c.TakerClass++
		case classGiver:
			c.GiverClass++
		}
		if s.pol.Kind() == policy.BIP {
			c.BIPSets++
		}
		c.ScSSum += uint64(s.mon.ScS)
	}
	return c
}

// Hit records a local hit on (idx, way): the policy promotes the way and the
// hit-side counter rules run (SC_T always decrements, SC_S with probability
// 1/2^n), followed by the role bookkeeping a counter move implies.
func (e *Engine) Hit(idx, way int) {
	s := &e.sets[idx]
	s.pol.OnHit(way)
	decS := e.rng.Uint64()&e.decMask == 0
	s.mon.OnLLCHit(decS)
	if decS {
		if e.observer != nil {
			e.noteClass(idx)
		}
		e.reconsiderGiver(idx)
	}
}

// Touch records a hit on a cooperatively cached entry at (idx, way). Only
// the policy moves: a cooperative hit is not local-capacity evidence for
// either set of the pair, so neither set's counters change (DESIGN.md §5).
func (e *Engine) Touch(idx, way int) { e.sets[idx].pol.OnHit(way) }

// Miss runs the miss path's demand update for set idx: a shadow lookup for
// the missing tag's signature, the SC_S/SC_T counter rules, a policy swap
// when SC_T saturates, and giver-heap maintenance (paper §4.3-4.4). It
// reports whether the shadow directory hit.
func (e *Engine) Miss(idx int, sig uint32) bool {
	s := &e.sets[idx]
	hit := s.mon.Shadow.LookupInvalidate(sig)
	if hit {
		swap := s.mon.OnShadowHit(e.cgeom)
		e.n.ShadowHits++
		if e.observer != nil {
			e.emit(obs.EvShadowHit, idx, -1, obs.Event{})
			e.noteClass(idx)
		}
		if swap && !e.cfg.DisableSwap {
			e.swapPolicies(idx)
		}
	}
	e.reconsiderGiver(idx)
	return hit
}

// Victim returns the way full set idx gives up. An uncoupled taker first
// requests a partner (paper §4.5: coupling is triggered by a taker's
// eviction). The host may substitute another way of the same set before
// calling Evict.
func (e *Engine) Victim(idx int) int {
	s := &e.sets[idx]
	if s.role == uncoupled && s.mon.IsTaker(e.cgeom) && !e.cfg.DisableCoupling {
		e.tryCouple(idx)
	}
	return s.pol.Victim()
}

// Evict decides what happens to the entry the host is displacing from set
// idx. sig is its tag's shadow signature and cc its CC bit; noSpill lets the
// host veto cooperative caching of this one victim. The owner set needs no
// argument: a cc entry belongs to the giver's partner, anything else to idx.
//
// A result of -1 means the entry leaves the cache, its signature recorded in
// the owner's shadow directory. Otherwise the entry is now accounted as
// cooperatively cached in the returned giver set, and the host must move it
// there with its CC bit set — into a free way, else into the way Victim
// names for the giver after passing that way's entry to Evict in turn (a
// giver's own victims always leave the cache) — and then call Fill.
func (e *Engine) Evict(idx int, sig uint32, cc, noSpill bool) int {
	s := &e.sets[idx]
	if cc {
		// A giver evicted a cooperatively cached entry: out of the cache,
		// credited to the taker's shadow (it is the taker's working-set
		// victim).
		s.foreign--
		e.sets[s.partner].mon.Shadow.Insert(sig)
		if s.foreign == 0 && s.role == giver {
			e.decouple(idx)
		}
		return -1
	}
	if s.role == taker && !noSpill && (e.cfg.UnconstrainedReceive || s.mon.ScS >= e.cgeom.MSB) {
		// Spilling allowed only while the taker still demands capacity
		// (§4.6/4.7: a role change stops spilling) ...
		if e.cfg.UnconstrainedReceive || e.sets[s.partner].mon.IsGiver(e.cgeom) {
			// ... and only while the giver can still receive (§4.6).
			e.receive(idx, s.partner)
			return s.partner
		}
	}
	s.mon.Shadow.Insert(sig)
	return -1
}

// Fill records that the host stored an entry in (idx, way); the set's
// current policy picks its insertion position.
func (e *Engine) Fill(idx, way int) { e.sets[idx].pol.OnInsert(way) }

// Remove records that the host dropped the entry at (idx, way) outside the
// eviction path — a delete or an expiry. It is not demand evidence, so no
// shadow signature is recorded; dropping a giver's last cooperatively cached
// entry dissolves the pair.
func (e *Engine) Remove(idx, way int, cc bool) {
	s := &e.sets[idx]
	s.pol.OnInvalidate(way)
	if cc {
		s.foreign--
		if s.foreign == 0 && s.role == giver {
			e.decouple(idx)
		}
	}
}

// Clear forgets every resident entry: policies reset and associations
// dissolve. Demand state (counters, shadow signatures) and Counts persist.
func (e *Engine) Clear() {
	for i := range e.sets {
		s := &e.sets[i]
		s.pol.Reset()
		s.role, s.partner, s.foreign = uncoupled, i, 0
	}
}

// classOf derives the set's current spatial classification from SC_S.
func (e *Engine) classOf(s *ctlSet) int8 {
	switch {
	case s.mon.IsTaker(e.cgeom):
		return classTaker
	case s.mon.IsGiver(e.cgeom):
		return classGiver
	default:
		return classNeutral
	}
}

// emit sends one event about set idx, stamped with the tick, global set ids
// and the set's counters; partner is -1 for events about one set alone, and
// x carries the type-specific fields. Callers guard on e.observer != nil.
func (e *Engine) emit(t obs.EventType, idx, partner int, x obs.Event) {
	s := &e.sets[idx]
	x.Type, x.Tick, x.Set = t, e.tick, e.base+idx
	if partner >= 0 {
		x.Partner = e.base + partner
	}
	x.ScS, x.ScT = s.mon.ScS, s.mon.ScT
	e.observer.Event(x)
}

// noteClass emits a class-change event when set idx's classification moved
// since the last report. Callers guard on e.observer != nil.
func (e *Engine) noteClass(idx int) {
	s := &e.sets[idx]
	k := e.classOf(s)
	if k == s.klass {
		return
	}
	s.klass = k
	e.emit(obs.EvClassChange, idx, -1, obs.Event{Class: className(k)})
}

// reconsiderGiver keeps the giver heap consistent with set idx's current
// counter state: uncoupled sets with a clear MSB are posted (or re-keyed);
// everything else is withdrawn.
func (e *Engine) reconsiderGiver(idx int) {
	if e.cfg.DisableCoupling {
		return
	}
	s := &e.sets[idx]
	if s.role == uncoupled && s.mon.IsGiver(e.cgeom) {
		e.heap.Post(idx, s.mon.ScS)
		return
	}
	e.heap.Remove(idx)
}

// swapPolicies exchanges the set's policy with its shadow's opposite (paper
// §4.4) and resets SC_T. Rankings are preserved on both sides.
func (e *Engine) swapPolicies(idx int) {
	s := &e.sets[idx]
	next := policy.Opposite(s.pol.Kind())
	policy.SwapKind(&s.pol, next)
	s.mon.Shadow.SwapPolicy(policy.Opposite(next))
	s.mon.ScT = 0
	e.n.PolicySwaps++
	if e.observer != nil {
		e.emit(obs.EvPolicySwap, idx, -1, obs.Event{Policy: next.String()})
	}
}

// tryCouple pairs taker set idx with the least-saturated live giver.
func (e *Engine) tryCouple(idx int) {
	for tries := 0; tries < e.cfg.SelectorSize; tries++ {
		cand, _, ok := e.heap.PopMin()
		if !ok {
			return
		}
		if cand == idx {
			continue
		}
		g := &e.sets[cand]
		// Heap entries can be stale; re-validate against the live monitor.
		if g.role != uncoupled || !g.mon.IsGiver(e.cgeom) {
			continue
		}
		s := &e.sets[idx]
		s.partner, s.role = cand, taker
		g.partner, g.role = idx, giver
		s.coupledAt, g.coupledAt = e.tick, e.tick
		e.heap.Remove(idx)
		e.n.Couplings++
		if e.observer != nil {
			e.emit(obs.EvCouple, idx, cand, obs.Event{})
		}
		return
	}
}

// receive accounts one victim of taker tIdx as cooperatively cached in giver
// gIdx; the host moves the payload.
func (e *Engine) receive(tIdx, gIdx int) {
	e.sets[gIdx].foreign++
	e.n.Spills++
	e.n.Receives++
	if e.observer != nil {
		e.emit(obs.EvSpill, tIdx, gIdx, obs.Event{})
		e.emit(obs.EvReceive, gIdx, tIdx, obs.Event{})
	}
}

// decouple dissolves the association of giver set gIdx with its taker
// (paper §4.7), resetting both association-table entries to self.
func (e *Engine) decouple(gIdx int) {
	g := &e.sets[gIdx]
	tIdx := g.partner
	t := &e.sets[tIdx]
	t.partner, t.role = tIdx, uncoupled
	g.partner, g.role = gIdx, uncoupled
	e.n.Decouplings++
	if e.observer != nil {
		e.emit(obs.EvDecouple, gIdx, tIdx, obs.Event{Life: e.tick - g.coupledAt})
	}
	// Both ends may immediately qualify as givers again.
	e.reconsiderGiver(gIdx)
	e.reconsiderGiver(tIdx)
}
