package vway

import (
	"testing"
	"testing/quick"

	"repro/internal/basecache"
	"repro/internal/sim"
)

var geom = sim.Geometry{Sets: 8, Ways: 2, LineSize: 64}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad geometry")
		}
	}()
	New(sim.Geometry{Sets: 3, Ways: 2, LineSize: 64}, 0)
}

func TestDefaults(t *testing.T) {
	c := New(geom, 0)
	if c.TagWays() != 4 {
		t.Fatalf("TagWays = %d, want 4 (TDR 2)", c.TagWays())
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := New(geom, 0)
	b := geom.BlockFor(9, 1)
	if c.Access(sim.Access{Block: b}).Hit {
		t.Fatal("cold hit")
	}
	if !c.Access(sim.Access{Block: b}).Hit {
		t.Fatal("warm miss")
	}
}

func TestVariableAssociativity(t *testing.T) {
	// The headline property: a hot set can hold more blocks than the nominal
	// associativity by borrowing data lines from idle sets. Working set of 4
	// in a nominally 2-way set must fully fit (tag store has 4 entries/set).
	c := New(geom, 0)
	for round := 0; round < 10; round++ {
		for tag := uint64(1); tag <= 4; tag++ {
			c.Access(sim.Access{Block: geom.BlockFor(tag, 0)})
		}
	}
	c.ResetStats()
	for round := 0; round < 10; round++ {
		for tag := uint64(1); tag <= 4; tag++ {
			c.Access(sim.Access{Block: geom.BlockFor(tag, 0)})
		}
	}
	if mr := c.Stats().MissRate(); mr != 0 {
		t.Fatalf("miss rate %v on WS of 4 in 2-way V-Way set, want 0", mr)
	}
	if n := c.ResidentBlocks(0); n != 4 {
		t.Fatalf("ResidentBlocks(0) = %d, want 4", n)
	}
}

func TestBeatsLRUOnSkewedDemand(t *testing.T) {
	// One set sees a working set of 2×Ways, the rest are idle: V-Way must
	// beat a conventional LRU cache of the same nominal geometry.
	run := func(c sim.Simulator) float64 {
		g := c.Geometry()
		for round := 0; round < 60; round++ {
			for tag := uint64(1); tag <= uint64(2*g.Ways); tag++ {
				c.Access(sim.Access{Block: g.BlockFor(tag, 3)})
			}
			if round == 20 {
				c.ResetStats()
			}
		}
		return c.Stats().MissRate()
	}
	v := run(New(geom, 0))
	l := run(basecache.NewLRU(geom, 1))
	if v >= l {
		t.Fatalf("V-Way miss rate %v not better than LRU %v under skewed demand", v, l)
	}
	if v != 0 {
		t.Fatalf("V-Way should retain the whole skewed working set, got %v", v)
	}
}

func TestDataStoreNeverOverflows(t *testing.T) {
	c := New(geom, 0)
	rng := sim.NewRNG(7)
	for i := 0; i < 20000; i++ {
		c.Access(sim.Access{Block: uint64(rng.Intn(512)), Write: rng.OneIn(3)})
	}
	allocated := 0
	for s := 0; s < geom.Sets; s++ {
		allocated += c.ResidentBlocks(s)
	}
	if allocated > geom.Sets*geom.Ways {
		t.Fatalf("%d data-backed blocks exceed %d data lines", allocated, geom.Sets*geom.Ways)
	}
	if allocated != geom.Sets*geom.Ways {
		t.Fatalf("steady state should keep all %d lines allocated, got %d", geom.Sets*geom.Ways, allocated)
	}
}

func TestPointerIntegrity(t *testing.T) {
	c := New(geom, 0)
	rng := sim.NewRNG(11)
	for i := 0; i < 30000; i++ {
		c.Access(sim.Access{Block: uint64(rng.Intn(1024)), Write: rng.OneIn(5)})
		if i%500 == 0 {
			if err := c.checkIntegrity(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	if err := c.checkIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIntegrityAndHitSoundness(t *testing.T) {
	f := func(blocks []uint16, seed uint64) bool {
		c := New(geom, seed)
		seen := map[uint64]bool{}
		for _, raw := range blocks {
			b := uint64(raw) % 2048
			out := c.Access(sim.Access{Block: b})
			if out.Hit && !seen[b] {
				return false
			}
			seen[b] = true
		}
		return c.checkIntegrity() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWritebackOnReplacement(t *testing.T) {
	c := New(geom, 0)
	// Dirty a block, then force enough pressure to replace it.
	c.Access(sim.Access{Block: geom.BlockFor(1, 0), Write: true})
	wb := uint64(0)
	for tag := uint64(2); tag < 200; tag++ {
		for s := 0; s < geom.Sets; s++ {
			c.Access(sim.Access{Block: geom.BlockFor(tag, s)})
		}
	}
	wb = c.Stats().Writebacks
	if wb == 0 {
		t.Fatal("no writeback despite dirty block replacement")
	}
}

func TestReuseProtectsHotLines(t *testing.T) {
	// A block with a saturated reuse counter must survive the sweep longer
	// than never-reused lines: drive one hot block and a stream of cold
	// blocks through other sets; the hot block should stay resident.
	c := New(geom, 0)
	hot := geom.BlockFor(1, 0)
	c.Access(sim.Access{Block: hot})
	for i := 0; i < 4000; i++ {
		c.Access(sim.Access{Block: hot})
		// two cold streams in other sets
		c.Access(sim.Access{Block: geom.BlockFor(uint64(100+i), 5)})
		c.Access(sim.Access{Block: geom.BlockFor(uint64(100+i), 6)})
	}
	c.ResetStats()
	if !c.Access(sim.Access{Block: hot}).Hit {
		t.Fatal("hot block evicted by cold streaming lines")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() sim.Stats {
		c := New(geom, 3)
		rng := sim.NewRNG(5)
		for i := 0; i < 20000; i++ {
			c.Access(sim.Access{Block: uint64(rng.Intn(4096))})
		}
		return c.Stats()
	}
	if run() != run() {
		t.Fatal("identical runs diverged")
	}
}
