package pelifo

import (
	"testing"

	"repro/internal/basecache"
	"repro/internal/sim"
)

var geom = sim.Geometry{Sets: 64, Ways: 4, LineSize: 64}

func TestNewPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"bad geometry":     func() { New(sim.Geometry{Sets: 6, Ways: 2, LineSize: 64}, 0) },
		"too many leaders": func() { New(sim.Geometry{Sets: 1, Ways: 4, LineSize: 64}, 0) },
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
	c := New(geom, 1)
	b := geom.BlockFor(7, 3)
	if c.Access(sim.Access{Block: b}).Hit {
		t.Fatal("cold hit")
	}
	if !c.Access(sim.Access{Block: b}).Hit {
		t.Fatal("warm miss")
	}
}

func TestFillStackInvariant(t *testing.T) {
	// Fill positions within a set must always be a permutation of
	// 0..occupancy-1, also once the learner has moved the eviction position:
	// the stream alternates random phases with thrashing ones, about three
	// epochs of fills each.
	c := New(geom, 1)
	rng := sim.NewRNG(2)
	moved := false
	for i := 0; i < 100000; i++ {
		b := uint64(rng.Intn(2048))
		if i/12000%2 == 1 {
			b = geom.BlockFor(uint64(i/geom.Sets%(geom.Ways+2)), i%geom.Sets)
		}
		c.Access(sim.Access{Block: b, Write: rng.OneIn(4)})
		moved = moved || c.EvictPos() != geom.Ways-1
		if i%997 != 0 {
			continue
		}
		for si := range c.sets {
			s := &c.sets[si]
			seen := map[int]bool{}
			occ := 0
			for _, l := range s.lines {
				if !l.valid {
					continue
				}
				occ++
				if l.fillPos < 0 || l.fillPos >= geom.Ways || seen[l.fillPos] {
					t.Fatalf("set %d: bad fill position %d (seen=%v)", si, l.fillPos, seen)
				}
				seen[l.fillPos] = true
			}
			for p := 0; p < occ; p++ {
				if !seen[p] {
					t.Fatalf("set %d: occupancy %d but position %d missing", si, occ, p)
				}
			}
			if occ != s.occ {
				t.Fatalf("set %d: tracked occ %d != actual %d", si, s.occ, occ)
			}
		}
	}
	if !moved {
		t.Fatal("the learner never moved the eviction position")
	}
}

func thrashRounds(c sim.Simulator, rounds, wsSize int, reset int) {
	g := c.Geometry()
	for r := 0; r < rounds; r++ {
		for tag := uint64(1); tag <= uint64(wsSize); tag++ {
			for set := 0; set < g.Sets; set++ {
				c.Access(sim.Access{Block: g.BlockFor(tag, set)})
			}
		}
		if r == reset {
			c.ResetStats()
		}
	}
}

func TestLearnsTopEvictionUnderThrash(t *testing.T) {
	c := New(geom, 1)
	thrashRounds(c, 60, geom.Ways+2, -1) // 23 040 accesses, most of them fills: about five epochs
	if c.EvictPos() > 1 {
		t.Fatalf("evictPos = %d after thrash, want near top (<=1)", c.EvictPos())
	}
}

func TestBeatsLRUOnThrash(t *testing.T) {
	p := New(geom, 1)
	l := basecache.NewLRU(geom, 1)
	thrashRounds(p, 100, geom.Ways+1, 40)
	thrashRounds(l, 100, geom.Ways+1, 40)
	if pr, lr := p.Stats().MissRate(), l.Stats().MissRate(); pr >= lr {
		t.Fatalf("PeLIFO miss rate %v not better than LRU %v on thrash", pr, lr)
	}
}

func TestNoMissesOnFittingWorkingSet(t *testing.T) {
	c := New(geom, 1)
	thrashRounds(c, 50, geom.Ways, 10)
	if mr := c.Stats().MissRate(); mr != 0 {
		t.Fatalf("missed on fitting working set: %v", mr)
	}
}

func TestDuelRescuesRecencyStream(t *testing.T) {
	// Interleaved-pair stream (reuse at stack distance 2): pure fill-stack
	// eviction would hover near FIFO, but dueling must keep PeLIFO within
	// reach of LRU.
	run := func(newC func() sim.Simulator) float64 {
		c := newC()
		g := c.Geometry()
		next := uint64(1)
		for i := 0; i < 6000; i++ {
			x, y := next, next+1
			next += 2
			for _, tag := range []uint64{x, y, x, y} {
				for set := 0; set < g.Sets; set += 4 {
					c.Access(sim.Access{Block: g.BlockFor(tag, set)})
				}
			}
			if i == 500 {
				c.ResetStats()
			}
		}
		return c.Stats().MissRate()
	}
	pr := run(func() sim.Simulator { return New(geom, 1) })
	lr := run(func() sim.Simulator { return basecache.NewLRU(geom, 1) })
	if pr > lr*1.35 {
		t.Fatalf("PeLIFO miss rate %v far above LRU %v despite duel", pr, lr)
	}
}

func TestWritebackReported(t *testing.T) {
	c := New(geom, 1)
	set := 5
	c.Access(sim.Access{Block: geom.BlockFor(1, set), Write: true})
	for tag := uint64(2); tag <= uint64(geom.Ways)+1; tag++ {
		c.Access(sim.Access{Block: geom.BlockFor(tag, set)})
	}
	if c.Stats().Writebacks == 0 {
		t.Fatal("dirty eviction never reported")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() sim.Stats {
		c := New(geom, 42)
		rng := sim.NewRNG(5)
		for i := 0; i < 30000; i++ {
			c.Access(sim.Access{Block: uint64(rng.Intn(4096))})
		}
		return c.Stats()
	}
	if run() != run() {
		t.Fatal("identical runs diverged")
	}
}
