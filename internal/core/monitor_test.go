package core

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/policy"
	"repro/internal/sim"
)

// shadowSet is one shadow directory with storage of its own: the engine's
// kernel (shadowLookup, shadowInsert) over one set's cells, links and list,
// to drive it alone.
type shadowSet struct {
	words []uint64
	links []policy.Link
	list  policy.List
	rng   *sim.RNG
}

// newShadowSet builds the shadow directory of a set of the given
// associativity running llcKind.
func newShadowSet(ways int, llcKind policy.Kind, rng *sim.RNG) *shadowSet {
	links := make([]policy.Link, ways)
	return &shadowSet{words: makeCells(1, ways), links: links, list: policy.MakeList(policy.Opposite(llcKind), links), rng: rng}
}

func (s *shadowSet) LookupInvalidate(sig uint32) bool {
	return shadowLookup(s.words, s.links, &s.list, sig)
}
func (s *shadowSet) Insert(sig uint32)             { shadowInsert(s.words, s.links, &s.list, sig, s.rng) }
func (s *shadowSet) Occupancy() int                { return s.list.Len() }
func (s *shadowSet) PolicyKind() policy.Kind       { return s.list.Kind() }
func (s *shadowSet) SwapPolicy(k policy.Kind) bool { return s.list.Swap(k) }

func newShadow(t *testing.T, ways int) *shadowSet {
	t.Helper()
	return newShadowSet(ways, policy.LRU, sim.NewRNG(1))
}

func TestShadowOppositePolicy(t *testing.T) {
	s := newShadowSet(4, policy.LRU, sim.NewRNG(1))
	if s.PolicyKind() != policy.BIP {
		t.Fatalf("shadow of an LRU set runs %v, want BIP", s.PolicyKind())
	}
	s = newShadowSet(4, policy.BIP, sim.NewRNG(1))
	if s.PolicyKind() != policy.LRU {
		t.Fatalf("shadow of a BIP set runs %v, want LRU", s.PolicyKind())
	}
}

func TestShadowInsertLookup(t *testing.T) {
	s := newShadow(t, 4)
	s.Insert(0xAB)
	if !s.LookupInvalidate(0xAB) {
		t.Fatal("inserted signature not found")
	}
	if s.LookupInvalidate(0xAB) {
		t.Fatal("signature survived its own lookup (must invalidate)")
	}
	if s.Occupancy() != 0 {
		t.Fatalf("occupancy %d after drain", s.Occupancy())
	}
}

func TestShadowDuplicateInsertRefreshes(t *testing.T) {
	s := newShadow(t, 4)
	s.Insert(1)
	s.Insert(1)
	if s.Occupancy() != 1 {
		t.Fatalf("duplicate insert created %d entries", s.Occupancy())
	}
}

func TestShadowReplacesWhenFull(t *testing.T) {
	s := newShadow(t, 2)
	s.Insert(1)
	s.Insert(2)
	s.Insert(3) // evicts per the shadow's (BIP) policy
	if s.Occupancy() != 2 {
		t.Fatalf("occupancy %d, want 2", s.Occupancy())
	}
	found := 0
	for _, sig := range []uint32{1, 2, 3} {
		if s.LookupInvalidate(sig) {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("found %d of the 3 signatures, want exactly 2 resident", found)
	}
}

func TestShadowQuickOccupancyBound(t *testing.T) {
	f := func(sigs []uint16) bool {
		s := newShadowSet(4, policy.LRU, sim.NewRNG(3))
		for _, g := range sigs {
			if g%3 == 0 {
				s.LookupInvalidate(uint32(g % 64))
			} else {
				s.Insert(uint32(g % 64))
			}
			if s.Occupancy() > 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// laneCells unpacks the first ways cells of a set's words.
func laneCells(words []uint64, ways int) []uint16 {
	out := make([]uint16, ways)
	for w := range out {
		out[w] = uint16(words[w/4] >> (16 * (w % 4)))
	}
	return out
}

// shadowModel is the shadow directory written the obvious way: one
// signature per way (-1 when empty), found by a per-cell scan, and a slice
// of the valid ways, MRU first, with its own copy of the RNG stream.
type shadowModel struct {
	cells []int
	order []int
	kind  policy.Kind
	rng   *sim.RNG
}

func (m *shadowModel) rank(way int) {
	if i := slices.Index(m.order, way); i >= 0 {
		m.order = slices.Delete(m.order, i, i+1)
	}
	if m.kind == policy.BIP && !m.rng.OneIn(policy.BIPEpsilon) {
		m.order = append(m.order, way)
		return
	}
	m.order = slices.Insert(m.order, 0, way)
}

func (m *shadowModel) lookup(sig int) bool {
	w := slices.Index(m.cells, sig)
	if w < 0 {
		return false
	}
	m.cells[w] = -1
	m.order = slices.DeleteFunc(m.order, func(v int) bool { return v == w })
	return true
}

func (m *shadowModel) insert(sig int) {
	w := slices.Index(m.cells, sig)
	if w < 0 {
		w = slices.Index(m.cells, -1)
	}
	if w < 0 {
		w = m.order[len(m.order)-1]
	}
	m.cells[w] = sig
	m.rank(w)
}

// TestShadowMatchesModel drives the four-lane shadow directory and the
// per-cell model at every associativity from 1 to 9 and at 16 — so sets
// whose last word is part padding too — with the same random lookups,
// inserts and policy swaps, over signatures that include 0 and the widest,
// and compares hit or miss, occupancy, victim, the cells and the RNG
// position after every step.
func TestShadowMatchesModel(t *testing.T) {
	for _, ways := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16} {
		t.Run(fmt.Sprint(ways), func(t *testing.T) {
			f := func(ops []uint16, seed uint64) bool {
				s := newShadowSet(ways, policy.LRU, sim.NewRNG(seed))
				m := &shadowModel{cells: slices.Repeat([]int{-1}, ways), kind: policy.BIP, rng: sim.NewRNG(seed)}
				for step, op := range ops {
					sig := int(op>>2) % (ways + 3)
					if sig == ways+2 {
						sig = 1<<MaxSignatureBits - 1
					}
					switch op % 4 {
					case 0:
						if got, want := s.LookupInvalidate(uint32(sig)), m.lookup(sig); got != want {
							t.Logf("step %d: lookup %#x hit %v, model %v", step, sig, got, want)
							return false
						}
					case 3:
						m.kind = policy.Opposite(m.kind)
						s.SwapPolicy(m.kind)
					default:
						s.Insert(uint32(sig))
						m.insert(sig)
					}
					victim := -1
					if len(m.order) > 0 {
						victim = m.order[len(m.order)-1]
					}
					for w, c := range laneCells(s.words, ways) {
						if want := m.cells[w]; (want < 0 && c != 0) || (want >= 0 && uint64(c) != cellOf(uint32(want))) {
							t.Logf("step %d: way %d holds %#x, model %d", step, w, c, want)
							return false
						}
					}
					if s.Occupancy() != len(m.order) || s.list.Victim() != victim || *s.rng != *m.rng {
						t.Logf("step %d: occupancy %d victim %d, model %d %d (or the RNGs diverged)", step, s.Occupancy(), s.list.Victim(), len(m.order), victim)
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMonitorCounterRules(t *testing.T) {
	g := CounterGeom{Max: 15, MSB: 8}
	var m Monitor
	// Shadow hits increment both counters, saturating.
	for i := 0; i < 20; i++ {
		m.OnShadowHit(g)
	}
	if m.ScS != 15 || m.ScT != 15 {
		t.Fatalf("counters (%d,%d), want saturation", m.ScS, m.ScT)
	}
	if !m.IsTaker(g) || m.IsGiver(g) {
		t.Fatal("saturated counter must mark a taker, not a giver")
	}
	// LLC hits always decrement SC_T, SC_S only when the 1/2^n event fires.
	m.OnLLCHit(false)
	if m.ScT != 14 || m.ScS != 15 {
		t.Fatalf("counters (%d,%d) after plain hit", m.ScS, m.ScT)
	}
	m.OnLLCHit(true)
	if m.ScT != 13 || m.ScS != 14 {
		t.Fatalf("counters (%d,%d) after decS hit", m.ScS, m.ScT)
	}
	// Floor at zero.
	for i := 0; i < 40; i++ {
		m.OnLLCHit(true)
	}
	if m.ScS != 0 || m.ScT != 0 {
		t.Fatalf("counters (%d,%d), want floor 0", m.ScS, m.ScT)
	}
	if !m.IsGiver(g) || m.IsTaker(g) {
		t.Fatal("zero counter must mark a giver")
	}
}

func TestMonitorSwapSignal(t *testing.T) {
	g := CounterGeom{Max: 15, MSB: 8}
	var m Monitor
	swaps := 0
	for i := 0; i < 15; i++ {
		if m.OnShadowHit(g) {
			swaps++
		}
	}
	if swaps != 1 {
		t.Fatalf("swap signalled %d times over 15 shadow hits, want exactly once at saturation", swaps)
	}
}

func TestMonitorMidRangeIsNeither(t *testing.T) {
	g := CounterGeom{Max: 15, MSB: 8}
	m := Monitor{ScS: 10}
	if m.IsTaker(g) || m.IsGiver(g) {
		t.Fatal("SC_S=10 must be neither taker nor giver")
	}
}
