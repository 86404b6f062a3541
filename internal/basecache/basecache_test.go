package basecache

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

var toyGeom = sim.Geometry{Sets: 4, Ways: 2, LineSize: 64}

// blockIn builds the i-th distinct block mapping to set idx.
func blockIn(g sim.Geometry, idx int, i uint64) uint64 { return g.BlockFor(i+1, idx) }

func TestNewPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"bad geometry": func() { NewLRU(sim.Geometry{Sets: 3, Ways: 2, LineSize: 64}, 1) },
		"nil factory":  func() { New("x", toyGeom, 1, nil) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		})
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := NewLRU(toyGeom, 1)
	b := blockIn(toyGeom, 0, 1)
	if out := c.Access(sim.Access{Block: b}); out.Hit {
		t.Fatal("cold access hit")
	}
	if out := c.Access(sim.Access{Block: b}); !out.Hit {
		t.Fatal("second access missed")
	}
	st := c.Stats()
	if st.Accesses != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := NewLRU(toyGeom, 1)
	a := blockIn(toyGeom, 2, 1)
	b := blockIn(toyGeom, 2, 2)
	d := blockIn(toyGeom, 2, 3)
	c.Access(sim.Access{Block: a})
	c.Access(sim.Access{Block: b})
	c.Access(sim.Access{Block: a}) // a is MRU
	c.Access(sim.Access{Block: d}) // evicts b
	if !c.Contains(a) || !c.Contains(d) {
		t.Fatal("resident blocks missing")
	}
	if c.Contains(b) {
		t.Fatal("LRU victim b still cached")
	}
}

func TestSetsAreIndependent(t *testing.T) {
	c := NewLRU(toyGeom, 1)
	// Fill set 0 far beyond capacity; set 1 contents must be untouched.
	s1 := blockIn(toyGeom, 1, 1)
	c.Access(sim.Access{Block: s1})
	for i := uint64(0); i < 100; i++ {
		c.Access(sim.Access{Block: blockIn(toyGeom, 0, i)})
	}
	if !c.Contains(s1) {
		t.Fatal("thrashing set 0 evicted set 1's block")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := NewLRU(toyGeom, 1)
	a := blockIn(toyGeom, 0, 1)
	b := blockIn(toyGeom, 0, 2)
	d := blockIn(toyGeom, 0, 3)
	c.Access(sim.Access{Block: a, Write: true})
	c.Access(sim.Access{Block: b})
	out := c.Access(sim.Access{Block: d}) // evicts dirty a
	if !out.Writeback {
		t.Fatal("dirty eviction did not report writeback")
	}
	out = c.Access(sim.Access{Block: a}) // evicts clean b
	if out.Writeback {
		t.Fatal("clean eviction reported writeback")
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestDirtyBitSetOnWriteHit(t *testing.T) {
	c := NewLRU(toyGeom, 1)
	a := blockIn(toyGeom, 0, 1)
	c.Access(sim.Access{Block: a})              // clean fill
	c.Access(sim.Access{Block: a, Write: true}) // dirtied by hit
	c.Access(sim.Access{Block: blockIn(toyGeom, 0, 2)})
	out := c.Access(sim.Access{Block: blockIn(toyGeom, 0, 3)}) // evicts a
	if !out.Writeback {
		t.Fatal("write hit did not dirty the line")
	}
}

func TestOccupancyAndPolicyKind(t *testing.T) {
	c := NewStatic("bip", toyGeom, 1, policy.BIP)
	if c.PolicyKind(0) != policy.BIP {
		t.Fatal("wrong policy kind")
	}
	if c.Occupancy(0) != 0 {
		t.Fatal("cold set not empty")
	}
	c.Access(sim.Access{Block: blockIn(toyGeom, 0, 1)})
	if c.Occupancy(0) != 1 {
		t.Fatal("occupancy after one fill")
	}
	for i := uint64(0); i < 10; i++ {
		c.Access(sim.Access{Block: blockIn(toyGeom, 0, i)})
	}
	if c.Occupancy(0) != toyGeom.Ways {
		t.Fatalf("occupancy = %d, want full %d", c.Occupancy(0), toyGeom.Ways)
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c := NewLRU(toyGeom, 1)
	a := blockIn(toyGeom, 0, 1)
	c.Access(sim.Access{Block: a})
	c.ResetStats()
	if c.Stats().Accesses != 0 {
		t.Fatal("stats not reset")
	}
	if out := c.Access(sim.Access{Block: a}); !out.Hit {
		t.Fatal("ResetStats disturbed cache contents")
	}
}

func TestCyclicWorkingSetBehaviour(t *testing.T) {
	// The motivating pathology (paper §2.2): a cyclic working set one block
	// larger than the associativity thrashes LRU (0% hits) but BIP retains
	// most of it.
	geom := sim.Geometry{Sets: 1, Ways: 4, LineSize: 64}
	run := func(kind policy.Kind) float64 {
		c := NewStatic("x", geom, 7, kind)
		for i := 0; i < 5; i++ { // warm
			for b := uint64(0); b < 5; b++ {
				c.Access(sim.Access{Block: geom.BlockFor(b+1, 0)})
			}
		}
		c.ResetStats()
		for i := 0; i < 400; i++ {
			for b := uint64(0); b < 5; b++ {
				c.Access(sim.Access{Block: geom.BlockFor(b+1, 0)})
			}
		}
		return c.Stats().HitRate()
	}
	lru := run(policy.LRU)
	bip := run(policy.BIP)
	if lru != 0 {
		t.Fatalf("LRU hit rate on thrash cycle = %v, want 0", lru)
	}
	if bip < 0.4 {
		t.Fatalf("BIP hit rate on thrash cycle = %v, want >= 0.4", bip)
	}
}

func TestLRUFriendlyWorkingSetBehaviour(t *testing.T) {
	// Conversely, with strong recency (repeated accesses to a small hot set)
	// LRU must beat BIP.
	// Interleaved pairs x,y,x,y over an unbounded stream: every block's first
	// reuse is at stack distance 2, well inside a 4-way set, so LRU hits 50%.
	// BIP inserts at the LRU position, so block x is evicted by block y's
	// fill before x's reuse — BIP hits only on its 1/32 MRU insertions.
	geom := sim.Geometry{Sets: 1, Ways: 4, LineSize: 64}
	run := func(kind policy.Kind) float64 {
		c := NewStatic("x", geom, 7, kind)
		next := uint64(1)
		for i := 0; i < 5000; i++ {
			x, y := next, next+1
			next += 2
			for _, b := range []uint64{x, y, x, y} {
				c.Access(sim.Access{Block: geom.BlockFor(b, 0)})
			}
			if i == 100 {
				c.ResetStats()
			}
		}
		return c.Stats().HitRate()
	}
	lru := run(policy.LRU)
	bip := run(policy.BIP)
	if lru <= bip {
		t.Fatalf("LRU (%v) should beat BIP (%v) on recency-friendly stream", lru, bip)
	}
}

func TestQuickNeverExceedsCapacity(t *testing.T) {
	// Property: replaying any access sequence, each set holds at most Ways
	// valid lines and every hit is for a block inserted earlier.
	f := func(blocks []uint16, seed uint64) bool {
		geom := sim.Geometry{Sets: 8, Ways: 2, LineSize: 64}
		c := NewLRU(geom, seed)
		seen := map[uint64]bool{}
		for _, raw := range blocks {
			b := uint64(raw)
			out := c.Access(sim.Access{Block: b})
			if out.Hit && !seen[b] {
				return false // hit on a never-inserted block
			}
			seen[b] = true
			for s := 0; s < geom.Sets; s++ {
				if c.Occupancy(s) > geom.Ways {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDeterminism(t *testing.T) {
	// Same seed + same stream => identical stats, even for BIP.
	f := func(blocks []uint16, seed uint64) bool {
		geom := sim.Geometry{Sets: 4, Ways: 4, LineSize: 64}
		c1 := NewStatic("a", geom, seed, policy.BIP)
		c2 := NewStatic("b", geom, seed, policy.BIP)
		for _, raw := range blocks {
			c1.Access(sim.Access{Block: uint64(raw)})
			c2.Access(sim.Access{Block: uint64(raw)})
		}
		return c1.Stats() == c2.Stats()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// A block address keeps all 64 of its bits in the tag array: blocks that
// differ only in bits 61–63 are different lines.
func TestHighBlockBitsDistinguishLines(t *testing.T) {
	g := sim.Geometry{Sets: 4, Ways: 8, LineSize: 64}
	c := NewLRU(g, 1)
	for hi := uint64(0); hi < 8; hi++ {
		if b := blockIn(g, 1, 7) | hi<<61; c.Access(sim.Access{Block: b}).Hit {
			t.Fatalf("block %#x hit on first touch: aliased with an earlier one", b)
		}
	}
	for hi := uint64(0); hi < 8; hi++ {
		if b := blockIn(g, 1, 7) | hi<<61; !c.Contains(b) {
			t.Fatalf("block %#x not resident in a set that holds exactly the 8 blocks touched", b)
		}
	}
}

// TestAccessZeroAllocs is the baseline cache's allocation gate: hits, misses
// and dirty evictions on a warm LRU cache do not allocate.
func TestAccessZeroAllocs(t *testing.T) {
	g := sim.Geometry{Sets: 64, Ways: 16, LineSize: 64}
	c := NewLRU(g, 1)
	rng := sim.NewRNG(2)
	access := func() {
		c.Access(sim.Access{Block: uint64(rng.Intn(2 * g.Sets * g.Ways)), Write: rng.OneIn(4)})
	}
	for i := 0; i < 10_000; i++ {
		access()
	}
	c.ResetStats()
	if allocs := testing.AllocsPerRun(10_000, access); allocs != 0 {
		t.Errorf("basecache.Cache.Access: %v allocs/op, want 0", allocs)
	}
	if st := c.Stats(); st.Hits == 0 || st.Misses == 0 || st.Writebacks == 0 {
		t.Errorf("measured stream missed a path: %+v", st)
	}
}

// stackDepth bounds the LRU oracle's per-set Mattson stack: the widest
// associativity TestLRUMatchesStackDistance checks.
const stackDepth = 32

// stackDistances is an LRU oracle built without a cache: one Mattson stack
// per set (MRU first, at most stackDepth deep) and a histogram of reuse
// distances. hist[d] for d in 1..stackDepth counts references found at
// depth d; hist[0] counts cold references and those beyond the stack. A
// k-way LRU misses exactly hist[0] + hist[k+1] + … + hist[stackDepth].
func stackDistances(refs []uint64, sets int) [stackDepth + 1]uint64 {
	var hist [stackDepth + 1]uint64
	stacks := make([][]uint64, sets)
	for _, b := range refs {
		st := stacks[b&uint64(sets-1)]
		d := slices.Index(st, b)
		if d < 0 {
			hist[0]++
			if len(st) < stackDepth {
				st = append(st, 0)
			}
			d = len(st) - 1
		} else {
			hist[d+1]++
		}
		copy(st[1:d+1], st[:d])
		st[0] = b
		stacks[b&uint64(sets-1)] = st
	}
	return hist
}

// lruMisses runs refs through a k-way NewLRU and returns its misses.
func lruMisses(refs []uint64, geom sim.Geometry) uint64 {
	c := NewLRU(geom, 7)
	for _, b := range refs {
		c.Access(sim.Access{Block: b})
	}
	return c.Stats().Misses
}

// oracleMisses is what the histogram predicts for a k-way LRU.
func oracleMisses(hist [stackDepth + 1]uint64, k int) uint64 {
	m := hist[0]
	for _, n := range hist[k+1:] {
		m += n
	}
	return m
}

// genBlocks draws n block addresses of workload w over geom.
func genBlocks(w trace.Workload, geom sim.Geometry, seed uint64, n int) []uint64 {
	g := trace.NewGen(w, geom, seed)
	refs := make([]uint64, n)
	for i := range refs {
		refs[i] = g.Next().Block
	}
	return refs
}

// TestLRUMatchesStackDistance checks NewLRU against an oracle that knows
// nothing of its recency lists: on every analog of the suite, at several
// associativities, its miss count must equal the stack-distance
// histogram's prediction exactly; then the same on seeded random small
// geometries of one analog.
func TestLRUMatchesStackDistance(t *testing.T) {
	const sets, n = 64, 200_000
	for _, b := range workloads.Suite() {
		refs := genBlocks(b.Workload, sim.Geometry{Sets: sets, Ways: stackDepth, LineSize: 64}, 7, n)
		hist := stackDistances(refs, sets)
		for _, k := range []int{1, 2, 4, 6, 8, 16, 32} {
			geom := sim.Geometry{Sets: sets, Ways: k, LineSize: 64}
			if got, want := lruMisses(refs, geom), oracleMisses(hist, k); got != want {
				t.Errorf("%s at %d ways: LRU misses %d, stack distances predict %d", b.Name, k, got, want)
			}
		}
	}

	rng := sim.NewRNG(11)
	w := workloads.Suite()[0].Workload
	for i := 0; i < 20; i++ {
		geom := sim.Geometry{Sets: 1 << rng.Intn(5), Ways: 1 + rng.Intn(stackDepth), LineSize: 64}
		refs := genBlocks(w, geom, rng.Uint64(), 20_000)
		if got, want := lruMisses(refs, geom), oracleMisses(stackDistances(refs, geom.Sets), geom.Ways); got != want {
			t.Errorf("%s on %+v: LRU misses %d, stack distances predict %d", w.Name, geom, got, want)
		}
	}
}
