package core

import (
	"testing"

	"repro/internal/basecache"
	"repro/internal/policy"
	"repro/internal/sim"
)

var geom = sim.Geometry{Sets: 8, Ways: 4, LineSize: 64}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad geometry")
		}
	}()
	New(sim.Geometry{Sets: 12, Ways: 2, LineSize: 64}, Config{})
}

func TestColdMissThenHit(t *testing.T) {
	c := New(geom, Config{Seed: 1})
	b := geom.BlockFor(5, 4)
	if c.Access(sim.Access{Block: b}).Hit {
		t.Fatal("cold hit")
	}
	if !c.Access(sim.Access{Block: b}).Hit {
		t.Fatal("warm miss")
	}
}

func TestStartsLRUAndUncoupled(t *testing.T) {
	c := New(geom, Config{Seed: 1})
	for i := 0; i < geom.Sets; i++ {
		if c.PolicyKind(i) != policy.LRU {
			t.Fatalf("set %d starts with %v, want LRU", i, c.PolicyKind(i))
		}
		if c.Partner(i) != i || c.Role(i) != "uncoupled" {
			t.Fatalf("set %d not self-associated at init", i)
		}
		if s, tc := c.Counters(i); s != 0 || tc != 0 {
			t.Fatalf("set %d counters (%d,%d) not zero at init", i, s, tc)
		}
	}
}

// thrashSet drives set idx with a cyclic working set of ws blocks for the
// given rounds.
func thrashSet(c sim.Simulator, idx, ws, rounds int) {
	g := c.Geometry()
	for r := 0; r < rounds; r++ {
		for tag := uint64(1); tag <= uint64(ws); tag++ {
			c.Access(sim.Access{Block: g.BlockFor(tag, idx)})
		}
	}
}

func TestShadowHitsRaiseSpatialCounter(t *testing.T) {
	c := New(geom, Config{Seed: 1})
	// Working set of 2×Ways cycled through one set: every revisit of an
	// evicted block should hit its shadow signature.
	thrashSet(c, 0, 2*geom.Ways, 10)
	scS, _ := c.Counters(0)
	if scS != 15 {
		t.Fatalf("SC_S = %d after sustained shadow hits, want saturation 15", scS)
	}
}

func TestTemporalSwapOnThrash(t *testing.T) {
	// A thrashing set under LRU must swap itself to BIP: the BIP-managed
	// shadow retains victim signatures that keep getting re-referenced.
	c := New(geom, Config{Seed: 1})
	thrashSet(c, 2, geom.Ways+1, 60)
	if c.PolicyKind(2) != policy.BIP {
		t.Fatalf("set 2 policy = %v after thrash, want BIP (swaps=%d)",
			c.PolicyKind(2), c.Stats().PolicySwaps)
	}
	if c.Stats().PolicySwaps == 0 {
		t.Fatal("no policy swaps recorded")
	}
}

func TestNoSwapWhenWorkingSetFits(t *testing.T) {
	c := New(geom, Config{Seed: 1})
	thrashSet(c, 1, geom.Ways, 100) // fits exactly: zero evictions
	if c.PolicyKind(1) != policy.LRU {
		t.Fatalf("fitting set swapped to %v", c.PolicyKind(1))
	}
	if scS, scT := c.Counters(1); scS != 0 || scT != 0 {
		t.Fatalf("fitting set counters (%d,%d), want (0,0)", scS, scT)
	}
}

// driveComplementary makes set 0 a taker (working set 1.5×Ways with good
// locality) and set 1 a giver (small hot working set).
func driveComplementary(c *Cache, rounds int) {
	for r := 0; r < rounds; r++ {
		for tag := uint64(1); tag <= uint64(geom.Ways+2); tag++ {
			c.Access(sim.Access{Block: geom.BlockFor(tag, 0)})
			c.Access(sim.Access{Block: geom.BlockFor(1, 1)})
			c.Access(sim.Access{Block: geom.BlockFor(2, 1)})
		}
	}
}

func TestCouplingForms(t *testing.T) {
	c := New(geom, Config{Seed: 1})
	driveComplementary(c, 60)
	if c.Role(0) != "taker" {
		t.Fatalf("set 0 role = %s, want taker (SC_S=%d)", c.Role(0), c.eng.sets[0].mon.ScS)
	}
	p := c.Partner(0)
	if p == 0 {
		t.Fatal("taker set 0 never coupled")
	}
	if c.Role(p) != "giver" || c.Partner(p) != 0 {
		t.Fatalf("partner %d: role=%s partner=%d, want giver/0", p, c.Role(p), c.Partner(p))
	}
	if c.Stats().Couplings == 0 {
		t.Fatal("coupling not counted")
	}
}

func TestCooperativeCachingResolvesMisses(t *testing.T) {
	c := New(geom, Config{Seed: 1})
	l := basecache.NewLRU(geom, 1)
	run := func(s sim.Simulator) float64 {
		for r := 0; r < 400; r++ {
			for tag := uint64(1); tag <= uint64(geom.Ways+2); tag++ {
				s.Access(sim.Access{Block: geom.BlockFor(tag, 0)})
				s.Access(sim.Access{Block: geom.BlockFor(1, 1)})
				s.Access(sim.Access{Block: geom.BlockFor(2, 1)})
			}
			if r == 200 {
				s.ResetStats()
			}
		}
		return s.Stats().MissRate()
	}
	sr := run(c)
	lr := run(l)
	if sr >= lr {
		t.Fatalf("STEM miss rate %v not better than LRU %v with complementary sets", sr, lr)
	}
	if c.Stats().SecondaryHits == 0 {
		t.Fatal("no cooperative hits recorded")
	}
}

func TestReceivingConstraint(t *testing.T) {
	// Once the giver's own demand grows (MSB set), it must stop receiving.
	c := New(geom, Config{Seed: 1})
	driveComplementary(c, 60)
	g := c.Partner(0)
	if g == 0 {
		t.Skip("no coupling formed")
	}
	// Blow up the giver's own working set so it starts shadow-hitting.
	thrashSet(c, g, 2*geom.Ways, 30)
	scS, _ := c.Counters(g)
	if scS < c.eng.cgeom.MSB {
		t.Skipf("giver never saturated (scS=%d)", scS)
	}
	spillsBefore := c.Stats().Spills
	thrashSet(c, 0, geom.Ways+2, 5) // taker keeps evicting
	if c.Stats().Spills != spillsBefore {
		t.Fatal("taker spilled into an overwhelmed giver")
	}
}

func TestDecoupleOnForeignDrain(t *testing.T) {
	c := New(geom, Config{Seed: 1})
	driveComplementary(c, 60)
	g := c.Partner(0)
	if g == 0 {
		t.Skip("no coupling formed")
	}
	// Drive the giver's own working set hard enough to evict all foreign
	// blocks, while the taker stays quiet.
	thrashSet(c, g, 2*geom.Ways, 50)
	if c.Role(g) == "giver" && c.eng.sets[g].foreign > 0 {
		t.Skipf("foreign blocks not drained (%d left)", c.eng.sets[g].foreign)
	}
	if c.Stats().Decouplings == 0 {
		t.Fatal("decoupling not counted after foreign drain")
	}
	// The original pair may legitimately re-couple with reversed roles (the
	// drained giver saturated; the idle taker decayed into giver range), so
	// assert consistency rather than a specific association.
	for si := 0; si < geom.Sets; si++ {
		switch c.Role(si) {
		case "uncoupled":
			if c.Partner(si) != si {
				t.Fatalf("set %d uncoupled but partner=%d", si, c.Partner(si))
			}
		default:
			p := c.Partner(si)
			if c.Partner(p) != si || c.Role(p) == c.Role(si) || c.Role(p) == "uncoupled" {
				t.Fatalf("set %d (%s) inconsistent with partner %d (%s)",
					si, c.Role(si), p, c.Role(p))
			}
		}
	}
}

func TestForeignCountConsistency(t *testing.T) {
	c := New(geom, Config{Seed: 3})
	rng := sim.NewRNG(4)
	for i := 0; i < 80000; i++ {
		var b uint64
		switch rng.Intn(3) {
		case 0: // big working set in set 0 (taker candidate)
			b = geom.BlockFor(uint64(rng.Intn(geom.Ways*2)+1), 0)
		case 1: // small hot sets (giver candidates)
			b = geom.BlockFor(uint64(rng.Intn(2)+1), 1+rng.Intn(3))
		default: // streaming elsewhere
			b = geom.BlockFor(uint64(i), 4+rng.Intn(4))
		}
		c.Access(sim.Access{Block: b, Write: rng.OneIn(4)})
		if i%2000 != 0 {
			continue
		}
		for si := range c.eng.sets {
			s := &c.eng.sets[si]
			n := 0
			_, flags := c.set(si)
			for _, f := range flags {
				if f&lineValid != 0 && f&lineCC != 0 {
					n++
				}
			}
			if n != s.foreign {
				t.Fatalf("set %d foreign=%d actual=%d", si, s.foreign, n)
			}
			if s.role == uncoupled && s.partner != si {
				t.Fatalf("set %d uncoupled but partner=%d", si, s.partner)
			}
			if s.role != uncoupled {
				p := &c.eng.sets[s.partner]
				if p.partner != si {
					t.Fatalf("set %d association asymmetric", si)
				}
				if (s.role == taker) == (p.role == taker) {
					t.Fatalf("set %d and partner %d share role", si, s.partner)
				}
			}
			// CC blocks only live in giver sets.
			if n > 0 && s.role != giver {
				t.Fatalf("set %d holds %d CC blocks but role=%v", si, n, s.role)
			}
		}
	}
}

func TestShadowExclusivity(t *testing.T) {
	// A block's signature must never be valid in its home shadow set while
	// the block is resident in the home set.
	c := New(geom, Config{Seed: 5})
	rng := sim.NewRNG(6)
	for i := 0; i < 40000; i++ {
		b := geom.BlockFor(uint64(rng.Intn(12)+1), rng.Intn(2))
		c.Access(sim.Access{Block: b})
		if i%1000 != 0 {
			continue
		}
		for si := range c.eng.sets {
			s := &c.eng.sets[si]
			blocks, flags := c.set(si)
			for w, b := range blocks {
				if flags[w]&(lineValid|lineCC) != lineValid {
					continue
				}
				sg := c.sigOf(b)
				for _, cell := range s.mon.Shadow.cells {
					if cell == shadowValid|uint64(sg) {
						t.Fatalf("set %d: resident block %#x has live shadow entry", si, b)
					}
				}
			}
		}
	}
}

func TestShadowOccupancyBounded(t *testing.T) {
	c := New(geom, Config{Seed: 1})
	thrashSet(c, 0, 64, 20)
	if occ := c.eng.sets[0].mon.Shadow.Occupancy(); occ > geom.Ways {
		t.Fatalf("shadow occupancy %d exceeds associativity", occ)
	}
}

func TestCountersStayInRange(t *testing.T) {
	c := New(geom, Config{Seed: 7, CounterBits: 4})
	rng := sim.NewRNG(8)
	for i := 0; i < 60000; i++ {
		c.Access(sim.Access{Block: uint64(rng.Intn(256))})
		if i%500 == 0 {
			for si := range c.eng.sets {
				scS, scT := c.Counters(si)
				if scS < 0 || scS > 15 || scT < 0 || scT > 15 {
					t.Fatalf("set %d counters (%d,%d) out of 4-bit range", si, scS, scT)
				}
			}
		}
	}
}

func TestNoDuplicateResidency(t *testing.T) {
	// A block must never be resident twice (locally and cooperatively).
	c := New(geom, Config{Seed: 9})
	rng := sim.NewRNG(10)
	for i := 0; i < 60000; i++ {
		var b uint64
		if rng.OneIn(2) {
			b = geom.BlockFor(uint64(rng.Intn(geom.Ways*2)+1), 0)
		} else {
			b = geom.BlockFor(uint64(rng.Intn(2)+1), 1+rng.Intn(7))
		}
		c.Access(sim.Access{Block: b})
		if i%2000 != 0 {
			continue
		}
		seen := map[uint64]int{}
		for si := range c.eng.sets {
			blocks, flags := c.set(si)
			for w, b := range blocks {
				if flags[w]&lineValid != 0 {
					seen[b]++
					if seen[b] > 1 {
						t.Fatalf("block %#x resident %d times", b, seen[b])
					}
				}
			}
		}
	}
}

func TestUniformThrashMatchesNoCoupling(t *testing.T) {
	// With every set thrashing identically there are no givers, so STEM must
	// form no couples (paper Fig 2 Ex #3) — its gains there come from the
	// temporal swap alone.
	c := New(geom, Config{Seed: 1})
	for r := 0; r < 80; r++ {
		for tag := uint64(1); tag <= uint64(2*geom.Ways); tag++ {
			for set := 0; set < geom.Sets; set++ {
				c.Access(sim.Access{Block: geom.BlockFor(tag, set)})
			}
		}
	}
	if c.Stats().Couplings != 0 {
		t.Fatalf("%d couples formed under uniform saturation", c.Stats().Couplings)
	}
}

func TestSecondaryAccountingOnlyForTakers(t *testing.T) {
	c := New(geom, Config{Seed: 1})
	driveComplementary(c, 60)
	g := c.Partner(0)
	if g == 0 {
		t.Skip("no coupling formed")
	}
	c.ResetStats()
	// Misses in the giver must not probe the taker.
	c.Access(sim.Access{Block: geom.BlockFor(999, g)})
	if c.Stats().SecondaryRefs != 0 {
		t.Fatal("giver miss performed a secondary probe")
	}
	// Misses in the taker must probe the giver.
	c.Access(sim.Access{Block: geom.BlockFor(888, 0)})
	if c.Stats().SecondaryRefs != 1 {
		t.Fatal("taker miss did not probe the giver")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() sim.Stats {
		c := New(geom, Config{Seed: 42})
		rng := sim.NewRNG(5)
		for i := 0; i < 40000; i++ {
			c.Access(sim.Access{Block: uint64(rng.Intn(2048))})
		}
		return c.Stats()
	}
	if run() != run() {
		t.Fatal("identical runs diverged")
	}
}

func TestOverheadMatchesPaper(t *testing.T) {
	// Table 3: 2048 sets × 16 ways × 64B lines, 44-bit addresses, m=10, k=4
	// → ~3.1% storage overhead.
	paperGeom := sim.Geometry{Sets: 2048, Ways: 16, LineSize: 64}
	r := Overhead(paperGeom, Config{}, 44)
	if r.TagBits != 27 {
		t.Fatalf("tag bits = %d, want 27", r.TagBits)
	}
	if r.RankBits != 4 {
		t.Fatalf("rank bits = %d, want 4", r.RankBits)
	}
	if r.AssocTableBits != 2048*11 {
		t.Fatalf("assoc table bits = %d, want %d", r.AssocTableBits, 2048*11)
	}
	if r.OverheadFraction < 0.029 || r.OverheadFraction > 0.033 {
		t.Fatalf("overhead = %.4f, want ~0.031", r.OverheadFraction)
	}
}

func TestDisableCouplingIsPureTemporal(t *testing.T) {
	c := New(geom, Config{Seed: 1, DisableCoupling: true})
	driveComplementary(c, 100)
	if st := c.Stats(); st.Couplings != 0 || st.Spills != 0 || st.SecondaryRefs != 0 {
		t.Fatalf("spatial activity despite DisableCoupling: %+v", st)
	}
	// The temporal dimension must still work.
	thrashSet(c, 2, geom.Ways+1, 60)
	if c.PolicyKind(2) != policy.BIP {
		t.Fatal("temporal swap lost with coupling disabled")
	}
}

func TestDisableSwapIsPureSpatial(t *testing.T) {
	c := New(geom, Config{Seed: 1, DisableSwap: true})
	thrashSet(c, 2, geom.Ways+1, 100)
	if c.Stats().PolicySwaps != 0 {
		t.Fatal("policy swap despite DisableSwap")
	}
	if c.PolicyKind(2) != policy.LRU {
		t.Fatal("policy changed despite DisableSwap")
	}
	// The spatial dimension must still work.
	driveComplementary(c, 80)
	if c.Stats().Couplings == 0 {
		t.Fatal("coupling lost with swapping disabled")
	}
}

func TestUnconstrainedReceiveKeepsSpilling(t *testing.T) {
	// With the §4.6 constraint removed, an overwhelmed giver keeps
	// receiving — the SBC behaviour the paper argues against.
	c := New(geom, Config{Seed: 1, UnconstrainedReceive: true})
	driveComplementary(c, 60)
	g := c.Partner(0)
	if g == 0 {
		t.Skip("no coupling formed")
	}
	// Saturate the giver.
	thrashSet(c, g, 2*geom.Ways, 30)
	scS, _ := c.Counters(g)
	if scS < c.eng.cgeom.MSB {
		t.Skipf("giver not saturated (scS=%d)", scS)
	}
	spillsBefore := c.Stats().Spills
	thrashSet(c, 0, geom.Ways+2, 5)
	if c.Stats().Spills == spillsBefore {
		t.Fatal("unconstrained receive did not keep spilling into a saturated giver")
	}
}

func TestAblationFlagsPreserveCorrectness(t *testing.T) {
	// Whatever the flags, the cache must stay a correct cache: no duplicate
	// residency, hits only on inserted blocks.
	for _, cfg := range []Config{
		{Seed: 2, DisableCoupling: true},
		{Seed: 2, DisableSwap: true},
		{Seed: 2, UnconstrainedReceive: true},
	} {
		c := New(geom, cfg)
		rng := sim.NewRNG(3)
		seen := map[uint64]bool{}
		for i := 0; i < 40000; i++ {
			var b uint64
			if rng.OneIn(2) {
				b = geom.BlockFor(uint64(rng.Intn(geom.Ways*2)+1), 0)
			} else {
				b = geom.BlockFor(uint64(rng.Intn(3)+1), 1+rng.Intn(7))
			}
			out := c.Access(sim.Access{Block: b})
			if out.Hit && !seen[b] {
				t.Fatalf("cfg %+v: hit on never-inserted block", cfg)
			}
			seen[b] = true
		}
	}
}
