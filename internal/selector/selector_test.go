package selector

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestPostPopOrder(t *testing.T) {
	h := New(8)
	h.Post(10, 5)
	h.Post(11, 1)
	h.Post(12, 3)
	set, sat, ok := h.PopMin()
	if !ok || set != 11 || sat != 1 {
		t.Fatalf("PopMin = (%d,%d,%v), want (11,1,true)", set, sat, ok)
	}
	set, _, _ = h.PopMin()
	if set != 12 {
		t.Fatalf("second PopMin = %d, want 12", set)
	}
	set, _, _ = h.PopMin()
	if set != 10 {
		t.Fatalf("third PopMin = %d, want 10", set)
	}
	if _, _, ok := h.PopMin(); ok {
		t.Fatal("PopMin on empty heap succeeded")
	}
}

func TestFullHeapDisplacement(t *testing.T) {
	h := New(2)
	if ok, _ := h.Post(1, 10); !ok {
		t.Fatal("initial post rejected")
	}
	if ok, _ := h.Post(2, 20); !ok {
		t.Fatal("initial post rejected")
	}
	// Equal saturation must NOT displace.
	if ok, d := h.Post(3, 20); ok || d != -1 {
		t.Fatalf("equal-saturation post: ok=%v displaced=%d", ok, d)
	}
	// Strictly less saturated displaces the worst (set 2).
	ok, displaced := h.Post(4, 15)
	if !ok || displaced != 2 {
		t.Fatalf("displacement: ok=%v displaced=%d, want true,2", ok, displaced)
	}
	if h.Contains(2) {
		t.Fatal("most-saturated resident not displaced")
	}
	if !h.Contains(1) || !h.Contains(4) {
		t.Fatal("wrong resident set after displacement")
	}
}

func TestPostUpdatesInPlace(t *testing.T) {
	h := New(4)
	h.Post(1, 10)
	h.Post(2, 5)
	h.Post(1, 1) // re-key set 1 below set 2
	if h.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (no duplicate entries)", h.Len())
	}
	set, sat, _ := h.PeekMin()
	if set != 1 || sat != 1 {
		t.Fatalf("PeekMin = (%d,%d), want (1,1)", set, sat)
	}
}

// TestPostUnchangedIsNoOp pins Post's short cut: re-posting a resident set
// at the saturation it already has is accepted, displaces nothing and
// leaves the heap's order exactly as it was — ties included, on a full heap.
func TestPostUnchangedIsNoOp(t *testing.T) {
	h := New(6)
	for set, sat := range []int{4, 2, 2, 7, 2, 5} {
		h.Post(set, sat)
	}
	sets, sat := slices.Clone(h.sets), slices.Clone(h.sat)
	for i := range sets {
		if ok, displaced := h.Post(sets[i], sat[i]); !ok || displaced != -1 {
			t.Fatalf("re-post of set %d at %d = (%v, %d), want (true, -1)", sets[i], sat[i], ok, displaced)
		}
		if !slices.Equal(h.sets, sets) || !slices.Equal(h.sat, sat) {
			t.Fatalf("re-post of set %d at %d moved the heap:\n sets %v sat %v\n want %v %v", sets[i], sat[i], h.sets, h.sat, sets, sat)
		}
	}
}

func TestRemove(t *testing.T) {
	h := New(4)
	h.Post(1, 3)
	h.Post(2, 1)
	h.Post(3, 2)
	if !h.Remove(2) {
		t.Fatal("Remove(2) failed")
	}
	if h.Remove(2) {
		t.Fatal("double Remove succeeded")
	}
	set, _, _ := h.PopMin()
	if set != 3 {
		t.Fatalf("min after removal = %d, want 3", set)
	}
}

func TestQuickHeapProperty(t *testing.T) {
	// Property: after any op sequence, repeated PopMin drains entries in
	// nondecreasing saturation order and membership matches a reference map
	// that mirrors the displacement rule.
	f := func(ops []uint16, capSeed uint8) bool {
		capacity := int(capSeed)%7 + 1
		h := New(capacity)
		ref := map[int]int{}
		rng := sim.NewRNG(uint64(capSeed))
		for _, op := range ops {
			set := int(op) % 32
			sat := int(op/32) % 64
			switch rng.Intn(3) {
			case 0, 1:
				accepted, displaced := h.Post(set, sat)
				_, existed := ref[set]
				if existed && !accepted {
					return false // update must always succeed
				}
				if displaced >= 0 {
					if _, ok := ref[displaced]; !ok {
						return false // displaced a non-resident
					}
					delete(ref, displaced)
				}
				if accepted {
					ref[set] = sat
				}
			case 2:
				removed := h.Remove(set)
				_, existed := ref[set]
				if removed != existed {
					return false
				}
				delete(ref, set)
			}
			if h.Len() != len(ref) || h.Len() > capacity {
				return false
			}
		}
		// Drain and verify order + membership.
		var sats []int
		for {
			set, sat, ok := h.PopMin()
			if !ok {
				break
			}
			want, existed := ref[set]
			if !existed || want != sat {
				return false
			}
			delete(ref, set)
			sats = append(sats, sat)
		}
		return len(ref) == 0 && sort.IntsAreSorted(sats)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	h := New(3)
	for i := 0; i < 100; i++ {
		h.Post(i, 100-i) // ever-less-saturated posts keep displacing
		if h.Len() > 3 {
			t.Fatalf("Len = %d exceeds capacity", h.Len())
		}
	}
	// The three least-saturated survive.
	for _, wantSat := range []int{1, 2, 3} {
		_, sat, ok := h.PopMin()
		if !ok || sat != wantSat {
			t.Fatalf("drain: sat = %d, want %d", sat, wantSat)
		}
	}
}
