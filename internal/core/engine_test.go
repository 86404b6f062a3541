package core

import "testing"

// TestTryCoupleRevalidatesStaleGivers drives the epoch-flip edge case: every
// set posted to the giver heap stops being a giver (its SC_S saturates)
// before any taker couples. tryCouple must re-validate each candidate
// against the live monitor, drain the stale entries, and couple nobody.
func TestTryCoupleRevalidatesStaleGivers(t *testing.T) {
	e := NewEngine(Config{Seed: 1}, 16, 4, 0)

	// Post every set but 0 as an apparently attractive giver.
	for idx := 1; idx < len(e.sets); idx++ {
		e.heap.Post(idx, 0)
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
	e.heap.Post(0, 0)
	e.heap.Post(1, 1)
	e.heap.Post(2, 2)
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
