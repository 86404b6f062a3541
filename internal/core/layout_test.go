package core

import (
	"testing"

	"repro/internal/policy"
	"repro/internal/sim"
)

// A block address keeps all 64 of its bits in the tag array: blocks that
// differ only in bits 61–63 are different lines.
func TestHighBlockBitsDistinguishLines(t *testing.T) {
	c := New(geom, Config{Seed: 1})
	base := geom.BlockFor(9, 3)
	var blocks []uint64
	for hi := uint64(0); hi < 8; hi++ {
		blocks = append(blocks, base|hi<<61)
	}
	for _, b := range blocks[:geom.Ways] {
		if c.Access(sim.Access{Block: b}).Hit {
			t.Fatalf("block %#x hit on first touch: aliased with an earlier one", b)
		}
	}
	for _, b := range blocks[:geom.Ways] {
		if !c.Access(sim.Access{Block: b}).Hit {
			t.Fatalf("block %#x missed while its set holds exactly the %d blocks touched", b, geom.Ways)
		}
	}
	for _, b := range blocks[geom.Ways:] {
		if c.Access(sim.Access{Block: b}).Hit {
			t.Fatalf("block %#x, never touched, hit", b)
		}
	}
}

// At the widest signature, 0 and 0xFFFFFFFF are entries like any other and
// an empty way matches neither.
func TestShadowExtremeSignatures(t *testing.T) {
	s := NewShadowSet(4, policy.LRU, sim.NewRNG(1))
	for _, sig := range []uint32{0, 0xFFFFFFFF} {
		if s.LookupInvalidate(sig) {
			t.Fatalf("empty shadow set holds %#x", sig)
		}
	}
	s.Insert(0)
	s.Insert(0xFFFFFFFF)
	s.Insert(0) // a duplicate, refreshed in place
	if s.Occupancy() != 2 {
		t.Fatalf("occupancy %d after inserting 0 twice and 0xFFFFFFFF, want 2", s.Occupancy())
	}
	for _, sig := range []uint32{0xFFFFFFFF, 0} {
		if !s.LookupInvalidate(sig) {
			t.Fatalf("signature %#x lost", sig)
		}
		if s.LookupInvalidate(sig) {
			t.Fatalf("signature %#x survived its invalidation", sig)
		}
	}
	if s.Occupancy() != 0 {
		t.Fatalf("occupancy %d after draining", s.Occupancy())
	}
}

// TestAccessZeroAllocs is the simulator's allocation gate: a warm STEM cache
// serves hits, partner probes, shadow hits, spills and policy swaps without
// allocating, and building the control state of a paper-sized cache takes a
// handful of allocations however many sets it has.
func TestAccessZeroAllocs(t *testing.T) {
	g := sim.Geometry{Sets: 64, Ways: 16, LineSize: 64}
	c := New(g, Config{Seed: 3})
	rng := sim.NewRNG(4)
	access := func() {
		// Sets 0–7 cycle through three times their capacity; the rest reuse
		// a few blocks and can give.
		set, span := rng.Intn(g.Sets), 4
		if set < 8 {
			span = 3 * g.Ways
		}
		c.Access(sim.Access{Block: g.BlockFor(uint64(rng.Intn(span)), set), Write: rng.OneIn(4)})
	}
	for i := 0; i < 200_000; i++ {
		access()
	}
	c.ResetStats()
	if allocs := testing.AllocsPerRun(50_000, access); allocs != 0 {
		t.Errorf("core.Cache.Access: %v allocs/op, want 0", allocs)
	}
	if st := c.Stats(); st.Hits == 0 || st.SecondaryHits == 0 || st.Spills == 0 || st.ShadowHits == 0 || st.PolicySwaps == 0 {
		t.Errorf("measured stream missed part of the mechanism: %+v", st)
	}

	const bound = 8
	var e Engine
	if allocs := testing.AllocsPerRun(3, func() { e = NewEngine(Config{}, 2048, 16, 0) }); allocs > bound {
		t.Errorf("NewEngine(2048 sets × 16 ways): %v allocations, want <= %d", allocs, bound)
	}
	_ = e
}
