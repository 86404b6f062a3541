package sbc

import (
	"testing"

	"repro/internal/basecache"
	"repro/internal/sim"
)

var geom = sim.Geometry{Sets: 8, Ways: 4, LineSize: 64}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad geometry")
		}
	}()
	New(sim.Geometry{Sets: 7, Ways: 2, LineSize: 64}, 0)
}

func TestColdMissThenHit(t *testing.T) {
	c := New(geom, 0)
	b := geom.BlockFor(3, 2)
	if c.Access(sim.Access{Block: b}).Hit {
		t.Fatal("cold hit")
	}
	if !c.Access(sim.Access{Block: b}).Hit {
		t.Fatal("warm miss")
	}
}

func TestSaturationTracksMissesMinusHits(t *testing.T) {
	c := New(geom, 0)
	set := 1
	for tag := uint64(1); tag <= 3; tag++ {
		c.Access(sim.Access{Block: geom.BlockFor(tag, set)}) // 3 misses
	}
	if got := c.Saturation(set); got != 3 {
		t.Fatalf("saturation = %d after 3 misses, want 3", got)
	}
	for i := 0; i < 2; i++ {
		c.Access(sim.Access{Block: geom.BlockFor(1, set)}) // hits
	}
	if got := c.Saturation(set); got != 1 {
		t.Fatalf("saturation = %d after 2 hits, want 1", got)
	}
}

func TestSaturationClamps(t *testing.T) {
	c := New(geom, 0)
	set := 0
	for tag := uint64(1); tag < 100; tag++ {
		c.Access(sim.Access{Block: geom.BlockFor(tag, set)})
	}
	if got := c.Saturation(set); got != 8 {
		t.Fatalf("saturation = %d, want clamp at 8", got)
	}
	for i := 0; i < 100; i++ {
		c.Access(sim.Access{Block: geom.BlockFor(99, set)})
	}
	if got := c.Saturation(set); got != 0 {
		t.Fatalf("saturation = %d, want clamp at 0", got)
	}
}

// driveComplementary saturates set 0 with a big cyclic working set while set
// 1 stays a lowly saturated hit stream, until they associate.
func driveComplementary(c *Cache, rounds int) {
	for r := 0; r < rounds; r++ {
		for tag := uint64(1); tag <= uint64(geom.Ways+2); tag++ {
			c.Access(sim.Access{Block: geom.BlockFor(tag, 0)})
			c.Access(sim.Access{Block: geom.BlockFor(1, 1)})
		}
	}
}

func TestAssociationForms(t *testing.T) {
	c := New(geom, 0)
	driveComplementary(c, 30)
	if c.Partner(0) < 0 {
		t.Fatalf("saturated set 0 never associated (sat=%d)", c.Saturation(0))
	}
	p := c.Partner(0)
	if c.Partner(p) != 0 {
		t.Fatalf("association not symmetric: partner(0)=%d, partner(%d)=%d", p, p, c.Partner(p))
	}
	if c.Stats().Couplings == 0 {
		t.Fatal("coupling not counted")
	}
}

func TestDisplacementResolvesMisses(t *testing.T) {
	// Working set of Ways+2 in set 0 with an idle low-sat partner: after
	// association the whole working set fits in 2×Ways lines, so the miss
	// rate must collapse compared to plain LRU.
	c := New(geom, 0)
	l := basecache.NewLRU(geom, 1)
	run := func(s sim.Simulator) float64 {
		for r := 0; r < 200; r++ {
			for tag := uint64(1); tag <= uint64(geom.Ways+2); tag++ {
				s.Access(sim.Access{Block: geom.BlockFor(tag, 0)})
				s.Access(sim.Access{Block: geom.BlockFor(1, 1)})
			}
			if r == 100 {
				s.ResetStats()
			}
		}
		return s.Stats().MissRate()
	}
	sr := run(c)
	lr := run(l)
	if sr >= lr {
		t.Fatalf("SBC miss rate %v not better than LRU %v with a free partner", sr, lr)
	}
	if c.Stats().SecondaryHits == 0 {
		t.Fatal("no secondary hits recorded")
	}
	// Spills happen during the transient before the working set settles, so
	// measure them on a fresh cache without the stats reset.
	fresh := New(geom, 0)
	driveComplementary(fresh, 30)
	if fresh.Stats().Spills == 0 {
		t.Fatal("no spills recorded during association transient")
	}
}

func TestSecondaryProbeCosts(t *testing.T) {
	c := New(geom, 0)
	driveComplementary(c, 50)
	st := c.Stats()
	if st.SecondaryRefs == 0 {
		t.Fatal("associated source never probed its destination")
	}
	if st.SecondaryRefs < st.SecondaryHits {
		t.Fatalf("SecondaryRefs %d < SecondaryHits %d", st.SecondaryRefs, st.SecondaryHits)
	}
}

func TestNoAssociationWhenAllSaturated(t *testing.T) {
	// Paper Figure 2 Example #3 / Figure 3a low-associativity range: with
	// every set saturated there are no destinations, so SBC must behave like
	// LRU and form no pairs.
	c := New(geom, 0)
	l := basecache.NewLRU(geom, 1)
	run := func(s sim.Simulator) float64 {
		for r := 0; r < 100; r++ {
			for tag := uint64(1); tag <= uint64(geom.Ways+2); tag++ {
				for set := 0; set < geom.Sets; set++ {
					s.Access(sim.Access{Block: geom.BlockFor(tag, set)})
				}
			}
			if r == 50 {
				s.ResetStats()
			}
		}
		return s.Stats().MissRate()
	}
	sr := run(c)
	lr := run(l)
	for set := 0; set < geom.Sets; set++ {
		if c.Partner(set) >= 0 {
			t.Fatalf("set %d associated despite uniform saturation", set)
		}
	}
	if sr != lr {
		t.Fatalf("SBC miss rate %v != LRU %v without destinations", sr, lr)
	}
}

func TestForeignCountsStayConsistent(t *testing.T) {
	c := New(geom, 0)
	rng := sim.NewRNG(3)
	for i := 0; i < 60000; i++ {
		// Skewed stream: sets 0-1 hot and large, others sparse.
		var b uint64
		if rng.Bernoulli(0.7) {
			b = geom.BlockFor(uint64(rng.Intn(12)+1), rng.Intn(2))
		} else {
			b = geom.BlockFor(uint64(rng.Intn(2)+1), 2+rng.Intn(6))
		}
		c.Access(sim.Access{Block: b, Write: rng.OneIn(4)})
		if i%1000 == 0 {
			for si := range c.sets {
				s := &c.sets[si]
				n := 0
				for _, l := range s.lines {
					if l.valid && l.foreign {
						n++
					}
				}
				if n != s.foreign {
					t.Fatalf("set %d foreign count %d != actual %d", si, s.foreign, n)
				}
				if s.partner >= 0 && c.sets[s.partner].partner != si {
					t.Fatalf("set %d association asymmetric", si)
				}
			}
		}
	}
}

func TestDissolutionOnDrain(t *testing.T) {
	c := New(geom, 0)
	driveComplementary(c, 30)
	if c.Partner(0) < 0 {
		t.Skip("association did not form under this seed")
	}
	dest := c.Partner(0)
	// Flood the destination with its own working set so all foreign blocks
	// drain; stop touching set 0 so it cannot refill them.
	for r := 0; r < 50; r++ {
		for tag := uint64(10); tag < uint64(10+geom.Ways+2); tag++ {
			c.Access(sim.Access{Block: geom.BlockFor(tag, dest)})
		}
	}
	if c.Partner(dest) >= 0 {
		t.Fatalf("association survived foreign drain (foreign=%d)", c.sets[dest].foreign)
	}
	if c.Stats().Decouplings == 0 {
		t.Fatal("decoupling not counted")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() sim.Stats {
		c := New(geom, 9)
		rng := sim.NewRNG(5)
		for i := 0; i < 30000; i++ {
			c.Access(sim.Access{Block: uint64(rng.Intn(2048))})
		}
		return c.Stats()
	}
	if run() != run() {
		t.Fatal("identical runs diverged")
	}
}
