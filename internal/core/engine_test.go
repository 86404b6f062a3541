package core

import (
	"testing"

	"repro/internal/sim"
)

// TestTryCoupleRevalidatesStaleGivers drives the epoch-flip edge case: every
// set posted to the giver heap stops being a giver (its SC_S saturates)
// before any taker couples. tryCouple must re-validate each candidate
// against the live monitor, drain the stale entries, and couple nobody.
func TestTryCoupleRevalidatesStaleGivers(t *testing.T) {
	e := NewEngine(Config{Seed: 1}, 16, 4, 0)

	// Post every set but 0 as an apparently attractive giver: a fresh set's
	// SC_S is 0, MSB clear.
	for idx := 1; idx < len(e.sets); idx++ {
		e.reconsiderGiver(idx)
	}
	if e.heap.Len() == 0 {
		t.Fatal("no sets posted")
	}

	// The epoch flips: all of them saturate into takers at once.
	for idx := 1; idx < len(e.sets); idx++ {
		e.sets[idx].mon.ScS = e.cgeom.Max
	}

	e.tryCouple(0)

	for idx := range e.sets {
		if e.sets[idx].role != uncoupled {
			t.Fatalf("set %d coupled to a stale giver (role %d)", idx, e.sets[idx].role)
		}
	}
	if got := e.Counts().Couplings; got != 0 {
		t.Fatalf("Couplings = %d, want 0", got)
	}
}

// TestTryCoupleSkipsSelfAndCouplesLiveGiver: the taker's own heap entry must
// be skipped, stale candidates drained, and the first live giver taken.
func TestTryCoupleSkipsSelfAndCouplesLiveGiver(t *testing.T) {
	e := NewEngine(Config{Seed: 1}, 16, 4, 0)

	// Set 0 is the taker but is (stalely) in the heap as the best giver;
	// set 1 is a stale giver; set 2 is live (ScS below the MSB).
	for idx := 0; idx < 3; idx++ {
		e.sets[idx].mon.ScS = idx
		e.reconsiderGiver(idx)
	}
	e.sets[0].mon.ScS = e.cgeom.Max
	e.sets[1].mon.ScS = e.cgeom.Max
	e.sets[2].mon.ScS = 0

	e.tryCouple(0)

	if e.Role(0) != "taker" || e.Partner(0) != 2 || e.GiverOf(0) != 2 {
		t.Fatalf("taker set 0: role %s partner %d, want taker coupled to 2", e.Role(0), e.Partner(0))
	}
	if e.Role(2) != "giver" || e.Partner(2) != 0 || e.GiverOf(2) != -1 {
		t.Fatalf("giver set 2: role %s partner %d, want giver coupled to 0", e.Role(2), e.Partner(2))
	}
	if e.Role(1) != "uncoupled" {
		t.Fatalf("stale set 1 acquired role %s", e.Role(1))
	}
	if got := e.Counts().Couplings; got != 1 {
		t.Fatalf("Couplings = %d, want 1", got)
	}
}

// TestPostedMirrorsHeap: a set's posted bit is set exactly while the set is
// resident in the giver heap, through posts, re-keys, displacements by a
// full heap's post, pops by tryCouple and withdrawals, so reconsiderGiver
// may skip the heap for a set that is not posted. A small heap over a
// thrashing stream keeps it full and displacing.
func TestPostedMirrorsHeap(t *testing.T) {
	geom := sim.Geometry{Sets: 64, Ways: 4, LineSize: 64}
	c := New(geom, Config{Seed: 3, SelectorSize: 4})
	rng := sim.NewRNG(5)
	var full uint64
	for i := 0; i < 100_000; i++ {
		var b uint64
		switch rng.Intn(3) {
		case 0:
			b = uint64(rng.Intn(geom.Sets * geom.Ways / 2))
		case 1:
			b = uint64(1<<20 + i%(3*geom.Sets*geom.Ways))
		default:
			b = geom.BlockFor(uint64(1<<12+rng.Intn(3*geom.Ways)), rng.Intn(8))
		}
		c.Access(sim.Access{Block: b})
		if i%97 != 0 {
			continue
		}
		for idx := range c.eng.sets {
			if got, want := c.eng.sets[idx].posted, c.eng.heap.Contains(idx); got != want {
				t.Fatalf("access %d set %d: posted %v, resident in the heap %v", i, idx, got, want)
			}
		}
		if c.eng.heap.Len() == c.eng.heap.Capacity() {
			full++
		}
	}
	if n := c.Stats(); n.Couplings == 0 || full == 0 {
		t.Fatalf("stream coupled %d pairs and filled the heap at %d checks; want both above 0", n.Couplings, full)
	}
}
