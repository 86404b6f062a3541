package cluster

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/wire"
)

func TestRingDeterminism(t *testing.T) {
	a, err := NewRing(3, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing(3, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewRing(3, 8, 43)
	if err != nil {
		t.Fatal(err)
	}
	diverged := false
	for i := 0; i < 4096; i++ {
		k := fmt.Sprintf("key-%d", i)
		sa, sb := a.SlotOf(k, a.Slots()), b.SlotOf(k, b.Slots())
		if sa != sb {
			t.Fatalf("equal seeds map %q to slots %d and %d", k, sa, sb)
		}
		if sa != other.SlotOf(k, other.Slots()) {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("seeds 42 and 43 produced identical key→slot mappings")
	}
}

func TestRingInitialOwnership(t *testing.T) {
	const nodes, vnodes = 4, 6
	r, err := NewRing(nodes, vnodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Slots() != nodes*vnodes {
		t.Fatalf("Slots=%d, want %d", r.Slots(), nodes*vnodes)
	}
	v := r.InitialView(make([]string, nodes))
	owned := make([]int, nodes)
	for s, o := range v.Owners() {
		if o != s%nodes || len(v.Replicas[s]) != 1 {
			t.Fatalf("slot %d replicas %v in the epoch-0 view, want [%d]", s, v.Replicas[s], s%nodes)
		}
		owned[o]++
	}
	for n, c := range owned {
		if c != vnodes || !v.Alive(n) {
			t.Fatalf("node %d owns %d slots (alive %v), want %d", n, c, v.Alive(n), vnodes)
		}
	}
	// Lookup names the key's slot and that slot's owner in the epoch-0 view.
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%d", i)
		home, slot := r.Lookup(k)
		if want := r.SlotOf(k, len(v.Replicas)); slot != want || home != v.Owner(slot) {
			t.Fatalf("Lookup(%q) = (%d, %d), want (%d, %d)", k, home, slot, v.Owner(want), want)
		}
	}
}

// TestParseViewChecksView: a view is adopted only when it is well formed —
// at least one slot, one replica set per slot, in slot order, owner
// present, members only. Its slot count is its own: holders hash keys
// modulo it, so a view with no slots would divide by zero.
func TestParseViewChecksView(t *testing.T) {
	r, err := NewRing(2, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	good := r.InitialView([]string{"a:1", "b:2"})
	good.Epoch = 3
	v, err := ParseView(good.Wire())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(v) != fmt.Sprint(good) {
		t.Fatalf("ParseView(Wire()) = %v, want %v", v, good)
	}
	for name, bend := range map[string]func(w *wire.View){
		"a view with 0 slots":        func(w *wire.View) { w.Replicas = nil },
		"slots out of order":         func(w *wire.View) { w.Replicas[0].Slot, w.Replicas[1].Slot = 1, 0 },
		"a slot with no owner":       func(w *wire.View) { w.Replicas[2].Replicas = nil },
		"a replica past the members": func(w *wire.View) { w.Replicas[3].Replicas = []uint32{2} },
	} {
		w := good.Wire()
		bend(&w)
		if _, err := ParseView(w); err == nil {
			t.Errorf("%s: view accepted", name)
		}
	}
}

// TestSlotBalance: the slot hash spreads keys evenly at every slot count a
// view may carry. Over 100k keys key-%08d, at 12, 24, 48 and 64 slots and
// six seeds, every slot's key count is within ±10 % of the mean — so a
// node's key mass is its slot count's share, which placement balances.
func TestSlotBalance(t *testing.T) {
	const keys = 100_000
	spread := [2]float64{1, 1} // the smallest and largest slot, × the mean
	for _, slots := range []int{12, 24, 48, 64} {
		for _, seed := range []uint64{1, 7, 21, 33, 42, 101} {
			r, err := NewRing(1, slots, seed)
			if err != nil {
				t.Fatal(err)
			}
			counts := make([]int, slots)
			for i := 0; i < keys; i++ {
				counts[r.SlotOf(fmt.Sprintf("key-%08d", i), slots)]++
			}
			mean := float64(keys) / float64(slots)
			lo, hi := slices.Min(counts), slices.Max(counts)
			spread = [2]float64{min(spread[0], float64(lo)/mean), max(spread[1], float64(hi)/mean)}
			if float64(lo) < 0.9*mean || float64(hi) > 1.1*mean {
				t.Errorf("%d slots, seed %d: slot key counts %d..%d, %.4f..%.4f × the mean %.0f; want within ±10 %%",
					slots, seed, lo, hi, float64(lo)/mean, float64(hi)/mean, mean)
			}
		}
	}
	t.Logf("slot key counts %.3f..%.3f × the mean", spread[0], spread[1])
}

func TestRingRejectsBadGeometry(t *testing.T) {
	if _, err := NewRing(0, 4, 1); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := NewRing(3, 0, 1); err == nil {
		t.Fatal("zero vnodes accepted")
	}
}

func TestNodeSeedsDiffer(t *testing.T) {
	seen := map[uint64]int{}
	for id := 0; id < 64; id++ {
		s := NodeSeed(99, id)
		if prev, dup := seen[s]; dup {
			t.Fatalf("nodes %d and %d share seed %d", prev, id, s)
		}
		seen[s] = id
	}
	if NodeSeed(1, 0) == NodeSeed(2, 0) {
		t.Fatal("cluster seeds 1 and 2 give node 0 the same seed")
	}
}
