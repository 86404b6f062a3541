package opt

import (
	"testing"
	"testing/quick"

	"repro/internal/basecache"
	"repro/internal/dip"
	"repro/internal/pelifo"
	"repro/internal/sim"
)

var geom = sim.Geometry{Sets: 4, Ways: 2, LineSize: 64}

func TestPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Simulate(sim.Geometry{Sets: 3, Ways: 1, LineSize: 64}, nil)
}

func TestEmptyTrace(t *testing.T) {
	st := Simulate(geom, nil)
	if st.Accesses != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestColdMissesOnly(t *testing.T) {
	// Distinct blocks: every access is a compulsory miss even for OPT.
	blocks := []uint64{0, 1, 2, 3, 4, 5, 6, 7}
	st := Simulate(geom, blocks)
	if st.Misses != 8 || st.Hits != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestFittingWorkingSetAllHits(t *testing.T) {
	// Two blocks per set, repeated: after the cold pass, all hits.
	var blocks []uint64
	for round := 0; round < 10; round++ {
		for tag := uint64(0); tag < 2; tag++ {
			blocks = append(blocks, geom.BlockFor(tag+1, 0))
		}
	}
	st := Simulate(geom, blocks)
	if st.Misses != 2 {
		t.Fatalf("misses = %d, want 2 compulsory", st.Misses)
	}
}

func TestClassicBeladyExample(t *testing.T) {
	// Single set of 2 ways; cyclic A B C repeated. OPT keeps one block
	// across each cycle: miss pattern after warm-up is 2 out of 3.
	g := sim.Geometry{Sets: 1, Ways: 2, LineSize: 64}
	var blocks []uint64
	for round := 0; round < 100; round++ {
		for tag := uint64(1); tag <= 3; tag++ {
			blocks = append(blocks, g.BlockFor(tag, 0))
		}
	}
	st := Simulate(g, blocks)
	// OPT on a cycle of N blocks with k ways achieves the classic
	// (k-1)/(N-1) hit rate: here 1/2.
	hitRate := st.HitRate()
	if hitRate < 0.48 || hitRate > 0.51 {
		t.Fatalf("OPT hit rate on cycle-of-3 = %v, want ~1/2", hitRate)
	}
}

// replay drives a simulator with a block trace and returns misses.
func replay(s sim.Simulator, blocks []uint64) uint64 {
	for _, b := range blocks {
		s.Access(sim.Access{Block: b})
	}
	return s.Stats().Misses
}

func TestQuickOPTLowerBoundsSetConstrainedSchemes(t *testing.T) {
	// The defining property: on any trace, OPT misses <= LRU/DIP/PeLIFO
	// misses (all are per-set policies over the same geometry).
	f := func(raw []uint16, seed uint64) bool {
		blocks := make([]uint64, len(raw))
		for i, r := range raw {
			blocks[i] = uint64(r % 256)
		}
		optMisses := Simulate(geom, blocks).Misses
		if replay(basecache.NewLRU(geom, seed), blocks) < optMisses {
			return false
		}
		if replay(dip.New(geom, seed), blocks) < optMisses {
			return false
		}
		if replay(pelifo.New(geom, seed), blocks) < optMisses {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestOPTBeatsLRUOnThrash(t *testing.T) {
	g := sim.Geometry{Sets: 1, Ways: 4, LineSize: 64}
	var blocks []uint64
	for round := 0; round < 200; round++ {
		for tag := uint64(1); tag <= 5; tag++ {
			blocks = append(blocks, g.BlockFor(tag, 0))
		}
	}
	lru := replay(basecache.NewLRU(g, 1), blocks)
	optMisses := Simulate(g, blocks).Misses
	if optMisses >= lru {
		t.Fatalf("OPT %d not better than LRU %d on thrash", optMisses, lru)
	}
	// OPT on cyclic 5 with 4 ways keeps 3 fixed + 1 rotating: miss rate 2/5.
	st := Simulate(g, blocks)
	if mr := st.MissRate(); mr > 0.45 {
		t.Fatalf("OPT miss rate %v, want <= ~0.4", mr)
	}
}

func TestMissRatio(t *testing.T) {
	blocks := []uint64{1, 1, 1, 1}
	if mr := Simulate(geom, blocks).MissRate(); mr != 0.25 {
		t.Fatalf("OPT miss ratio = %v, want 0.25", mr)
	}
}

func TestStaleHeapEntriesHandled(t *testing.T) {
	// Re-referencing resident blocks creates stale heap entries; a long
	// mixed trace exercises the lazy-skip path.
	g := sim.Geometry{Sets: 1, Ways: 3, LineSize: 64}
	rng := sim.NewRNG(9)
	blocks := make([]uint64, 30000)
	for i := range blocks {
		blocks[i] = g.BlockFor(uint64(rng.Intn(8))+1, 0)
	}
	st := Simulate(g, blocks)
	if st.Accesses != 30000 || st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("stats %+v", st)
	}
	lru := replay(basecache.NewLRU(g, 1), blocks)
	if st.Misses > lru {
		t.Fatalf("OPT %d worse than LRU %d", st.Misses, lru)
	}
}
