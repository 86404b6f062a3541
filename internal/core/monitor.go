package core

import (
	"repro/internal/hashfn"
	"repro/internal/policy"
	"repro/internal/sim"
)

// ShadowSet is the m-bit-signature victim directory attached to each LLC set
// (paper §4.3). It has the same associativity as the LLC set, stores hashed
// tags of the set's victim blocks, and runs the replacement policy opposite
// to the LLC set's so that the eviction stream exposes whichever temporal
// behaviour the LLC set is currently missing. Entries are strictly exclusive
// with the LLC set's resident blocks: an entry is invalidated the moment a
// block with a matching signature is re-inserted into the LLC set.
//
// ShadowSet is exported (together with Monitor and CounterGeom) so other
// capacity managers — notably the stemcache KV library — can reuse the
// paper's demand monitor verbatim instead of re-implementing it.
type ShadowSet struct {
	// cells holds one entry per way: shadowValid | signature, or 0 when the
	// way is empty — a lookup is one compare per way, and a 32-bit signature
	// of 0 or 0xFFFFFFFF is an entry like any other. The policy ranks
	// exactly the valid ways.
	cells []uint64
	pol   policy.Recency
}

// shadowValid marks an occupied cell, one bit above the widest signature.
const shadowValid = 1 << hashfn.MaxBits

// NewShadowSet builds a shadow directory of the given associativity whose
// policy is the opposite of the owning LLC set's (paper §4.3).
func NewShadowSet(ways int, llcKind policy.Kind, rng *sim.RNG) ShadowSet {
	return shadowOver(make([]uint64, ways), make([]policy.Link, ways), llcKind, rng)
}

// shadowOver is NewShadowSet over the caller's (zeroed) storage.
func shadowOver(cells []uint64, links []policy.Link, llcKind policy.Kind, rng *sim.RNG) ShadowSet {
	return ShadowSet{cells: cells, pol: policy.MakeRecency(policy.Opposite(llcKind), links, rng)}
}

// LookupInvalidate checks for sig and, on a match, invalidates the entry
// (the block is about to re-enter the LLC set) and reports the hit.
func (s *ShadowSet) LookupInvalidate(sig uint32) bool {
	want := shadowValid | uint64(sig)
	for w, c := range s.cells {
		if c == want {
			s.cells[w] = 0
			s.pol.OnInvalidate(w)
			return true
		}
	}
	return false
}

// Insert records the signature of a block truly evicted from the owning LLC
// set, replacing per the shadow's own (opposite) policy if full. Duplicate
// signatures are refreshed in place to preserve entry uniqueness.
func (s *ShadowSet) Insert(sig uint32) {
	want := shadowValid | uint64(sig)
	way := -1
	for w, c := range s.cells {
		if c == want {
			way = w // refresh ranking; entry already present
			break
		}
		if c == 0 && way < 0 {
			way = w
		}
	}
	if way < 0 {
		way = s.pol.Victim()
	}
	s.cells[way] = want
	s.pol.OnInsert(way)
}

// Occupancy returns the number of valid shadow entries.
func (s *ShadowSet) Occupancy() int { return s.pol.Len() }

// PolicyKind returns the shadow's current replacement-policy kind.
func (s *ShadowSet) PolicyKind() policy.Kind { return s.pol.Kind() }

// SwapPolicy switches the shadow's policy kind in place, preserving its
// ranking (the shadow-side half of the paper's §4.4 policy swap).
func (s *ShadowSet) SwapPolicy(k policy.Kind) bool { return policy.SwapKind(&s.pol, k) }

// Monitor is one set's slice of the Set-level Capacity Demand Monitor
// (SCDM, paper §4.2-4.4): the shadow set plus the two k-bit saturating
// counters.
//
//   - ScS (spatial): incremented on every shadow hit, decremented with
//     probability 1/2^n on every LLC-set hit. Saturated ⇒ the set is a
//     *taker* (doubling its capacity would raise its hit rate by at least
//     1/2^n); MSB clear ⇒ the set is a *giver*.
//   - ScT (temporal): incremented on every shadow hit, decremented on every
//     LLC-set hit. Saturated ⇒ the shadow's (opposite) policy is measurably
//     beating the set's current policy, so the two swap and ScT resets.
//
// The counters come first: every hit updates them, while only the miss and
// eviction paths touch the shadow.
type Monitor struct {
	ScS    int
	ScT    int
	Shadow ShadowSet
}

// CounterGeom carries the ceiling and MSB mask derived from the configured
// counter width k.
type CounterGeom struct {
	Max int // 2^k - 1
	MSB int // 2^(k-1)
}

// NewCounterGeom derives the counter geometry for k-bit saturating counters.
func NewCounterGeom(k int) CounterGeom {
	return CounterGeom{Max: 1<<uint(k) - 1, MSB: 1 << uint(k-1)}
}

// OnShadowHit applies the shadow-hit counter rule and reports whether ScT
// saturated (the caller then swaps policies and resets ScT).
func (m *Monitor) OnShadowHit(g CounterGeom) (swapNeeded bool) {
	if m.ScS < g.Max {
		m.ScS++
	}
	if m.ScT < g.Max {
		m.ScT++
	}
	return m.ScT == g.Max
}

// OnLLCHit applies the LLC-hit counter rule; decS tells whether the 1/2^n
// probabilistic event fired for the spatial counter.
func (m *Monitor) OnLLCHit(decS bool) {
	if m.ScT > 0 {
		m.ScT--
	}
	if decS && m.ScS > 0 {
		m.ScS--
	}
}

// IsTaker reports whether the set's spatial counter marks it as demanding
// extra capacity.
func (m *Monitor) IsTaker(g CounterGeom) bool { return m.ScS == g.Max }

// IsGiver reports whether the spatial counter's MSB is clear: the set hits
// frequently within its local capacity and can contribute space.
func (m *Monitor) IsGiver(g CounterGeom) bool { return m.ScS < g.MSB }
