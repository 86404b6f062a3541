package dip

import (
	"testing"

	"repro/internal/basecache"
	"repro/internal/policy"
	"repro/internal/sim"
)

var geom = sim.Geometry{Sets: 64, Ways: 4, LineSize: 64}

// pairs are the two caches built on one policy.Duel, with the flavours they
// duel.
var pairs = []struct {
	name string
	new  func(sim.Geometry, uint64) *Cache
	a, b policy.Kind
}{
	{"DIP", New, policy.LRU, policy.BIP},
	{"DRRIP", NewDRRIP, policy.SRRIP, policy.BRRIP},
}

func TestNewPanics(t *testing.T) {
	bad := sim.Geometry{Sets: 5, Ways: 2, LineSize: 64}
	oneSet := sim.Geometry{Sets: 1, Ways: 4, LineSize: 64}
	for name, f := range map[string]func(){
		"bad geometry":           func() { New(bad, 0) },
		"too many leaders":       func() { New(oneSet, 0) },
		"DRRIP bad geometry":     func() { NewDRRIP(bad, 0) },
		"DRRIP too many leaders": func() { NewDRRIP(oneSet, 0) },
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

// thrash drives every set with a cyclic working set of size ways+1, the
// canonical LRU-killer.
func thrash(c sim.Simulator, rounds int) {
	g := c.Geometry()
	for r := 0; r < rounds; r++ {
		for tag := uint64(1); tag <= uint64(g.Ways)+1; tag++ {
			for set := 0; set < g.Sets; set++ {
				c.Access(sim.Access{Block: g.BlockFor(tag, set)})
			}
		}
	}
}

// The five tests below hold both caches to the set-dueling contract.

// TestLeaderLayout checks Sets/64 leaders per flavour, one of each per
// 64-set constituency, running their fixed kind while every other set
// follows.
func TestLeaderLayout(t *testing.T) {
	for _, p := range pairs {
		t.Run(p.name, func(t *testing.T) {
			for _, sets := range []int{64, 256, 2048} {
				c := p.new(sim.Geometry{Sets: sets, Ways: 4, LineSize: 64}, 1)
				for lo := 0; lo < sets; lo += 64 {
					var a, b int
					for set := lo; set < lo+64; set++ {
						want := policy.Dual
						if c.duel.Leader(set) && c.duel.B(set) {
							b, want = b+1, p.b
						} else if c.duel.Leader(set) {
							a, want = a+1, p.a
						}
						if got := c.PolicyKind(set); got != want {
							t.Fatalf("%d sets: set %d runs %v, want %v", sets, set, got, want)
						}
					}
					if a != 1 || b != 1 {
						t.Fatalf("%d sets: constituency at %d holds %d A and %d B leaders, want 1 and 1", sets, lo, a, b)
					}
				}
			}
		})
	}
}

func TestStartsUndecided(t *testing.T) {
	for _, p := range pairs {
		t.Run(p.name, func(t *testing.T) {
			c := p.new(geom, 1)
			if c.duel.PSEL() != 512 {
				t.Fatalf("initial PSEL = %d, want midpoint 512", c.duel.PSEL())
			}
		})
	}
}

func TestPSELBounds(t *testing.T) {
	for _, p := range pairs {
		t.Run(p.name, func(t *testing.T) {
			c := p.new(geom, 1)
			thrash(c, 100) // drive PSEL hard toward one rail
			if psel := c.duel.PSEL(); psel < 0 || psel > 1023 {
				t.Fatalf("PSEL = %d escaped [0, 1023]", psel)
			}
		})
	}
}

// TestDuelPicksBIPUnderThrash checks that flavour B (BIP for DIP, BRRIP for
// DRRIP) wins under thrash.
func TestDuelPicksBIPUnderThrash(t *testing.T) {
	for _, p := range pairs {
		t.Run(p.name, func(t *testing.T) {
			c := p.new(geom, 1)
			thrash(c, 30)
			if c.winner() != p.b {
				t.Fatalf("winner = %v after thrash, want %v (PSEL=%d)", c.winner(), p.b, c.duel.PSEL())
			}
		})
	}
}

// TestDuelPicksLRUUnderRecency checks that flavour A (LRU for DIP, SRRIP for
// DRRIP) wins under reuse.
func TestDuelPicksLRUUnderRecency(t *testing.T) {
	for _, p := range pairs {
		t.Run(p.name, func(t *testing.T) {
			// Interleaved triples (each block reused once, at stack distance
			// 3): in 4 ways LRU hits 50 % and SRRIP 39 %, while BIP and
			// BRRIP insert distant and hit under 4 %. (At distance 2 BRRIP's
			// rotating victim scan ties SRRIP, so only A's win here is
			// common to both pairs.)
			c := p.new(geom, 1)
			next := uint64(1)
			for i := 0; i < 4000; i++ {
				x, y, z := next, next+1, next+2
				next += 3
				for _, tag := range []uint64{x, y, z, x, y, z} {
					for set := 0; set < geom.Sets; set += 8 {
						c.Access(sim.Access{Block: geom.BlockFor(tag, set)})
					}
				}
			}
			if c.winner() != p.a {
				t.Fatalf("winner = %v on recency stream, want %v (PSEL=%d)", c.winner(), p.a, c.duel.PSEL())
			}
		})
	}
}

func TestColdMissThenHit(t *testing.T) {
	for _, p := range pairs {
		t.Run(p.name, func(t *testing.T) {
			c := p.new(geom, 1)
			b := geom.BlockFor(3, 7)
			if c.Access(sim.Access{Block: b}).Hit {
				t.Fatal("cold hit")
			}
			if !c.Access(sim.Access{Block: b}).Hit {
				t.Fatal("warm miss")
			}
		})
	}
}

func TestBeatsLRUOnThrash(t *testing.T) {
	run := func(c sim.Simulator) float64 {
		thrash(c, 30)
		c.ResetStats()
		thrash(c, 70)
		return c.Stats().MissRate()
	}
	lr := run(basecache.NewLRU(geom, 1))
	if lr < 0.99 {
		t.Fatalf("LRU should thrash completely, got %v", lr)
	}
	for _, p := range pairs {
		t.Run(p.name, func(t *testing.T) {
			if dr := run(p.new(geom, 1)); dr >= lr {
				t.Fatalf("%s miss rate %v not better than LRU %v on thrash", p.name, dr, lr)
			}
		})
	}
}

func TestMatchesLRUOnFit(t *testing.T) {
	// Working set fits: the duel and LRU both converge to zero misses.
	for _, p := range pairs {
		t.Run(p.name, func(t *testing.T) {
			d := p.new(geom, 1)
			for r := 0; r < 50; r++ {
				for tag := uint64(1); tag <= uint64(geom.Ways); tag++ {
					for set := 0; set < geom.Sets; set++ {
						d.Access(sim.Access{Block: geom.BlockFor(tag, set)})
					}
				}
				if r == 10 {
					d.ResetStats()
				}
			}
			if mr := d.Stats().MissRate(); mr != 0 {
				t.Fatalf("%s misses on fitting working set: %v", p.name, mr)
			}
		})
	}
}

func TestNearLRUOnScans(t *testing.T) {
	// Scan resistance: a hot working set polluted by one-shot scan blocks.
	// Both duels must beat LRU here, which plain LRU cannot.
	run := func(c sim.Simulator) float64 {
		g := c.Geometry()
		rng := sim.NewRNG(3)
		next := uint64(100)
		drive := func(n int) {
			for i := 0; i < n; i++ {
				set := rng.Intn(g.Sets)
				if rng.OneIn(3) {
					next++
					c.Access(sim.Access{Block: g.BlockFor(next, set)}) // scan
				} else {
					c.Access(sim.Access{Block: g.BlockFor(uint64(rng.Intn(g.Ways-1))+1, set)}) // hot
				}
			}
		}
		drive(40000)
		c.ResetStats()
		drive(80000)
		return c.Stats().MissRate()
	}
	lr := run(basecache.NewLRU(geom, 1))
	for _, p := range pairs {
		t.Run(p.name, func(t *testing.T) {
			if dr := run(p.new(geom, 1)); dr >= lr {
				t.Fatalf("%s %v not better than LRU %v on scan pollution", p.name, dr, lr)
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	for _, p := range pairs {
		t.Run(p.name, func(t *testing.T) {
			run := func() sim.Stats {
				c := p.new(geom, 99)
				rng := sim.NewRNG(5)
				for i := 0; i < 30000; i++ {
					c.Access(sim.Access{Block: uint64(rng.Intn(4096))})
				}
				return c.Stats()
			}
			if run() != run() {
				t.Fatal("identical runs diverged")
			}
		})
	}
}
