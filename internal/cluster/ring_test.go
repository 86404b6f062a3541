package cluster

import (
	"fmt"
	"strings"
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
		if a.SlotOfKey(k) != b.SlotOfKey(k) {
			t.Fatalf("equal seeds map %q to slots %d and %d", k, a.SlotOfKey(k), b.SlotOfKey(k))
		}
		if a.SlotOfKey(k) != other.SlotOfKey(k) {
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
		if slot != r.SlotOfKey(k) || home != v.Owner(slot) {
			t.Fatalf("Lookup(%q) = (%d, %d), want (%d, %d)", k, home, slot, v.Owner(slot), r.SlotOfKey(k))
		}
	}
}

// TestParseViewChecksRing: a view is adopted only when it fits the ring —
// one replica set per slot, in slot order, owner present, members only —
// and a slot-count mismatch names both counts.
func TestParseViewChecksRing(t *testing.T) {
	r, err := NewRing(2, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	good := r.InitialView([]string{"a:1", "b:2"})
	good.Epoch = 3
	v, err := r.ParseView(good.Wire())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(v) != fmt.Sprint(good) {
		t.Fatalf("ParseView(Wire()) = %v, want %v", v, good)
	}
	wide, err := NewRing(2, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wide.ParseView(good.Wire()); err == nil || !strings.Contains(err.Error(), "4 slots, the ring 8") {
		t.Fatalf("8-slot ring parsed a 4-slot view: %v", err)
	}
	for name, bend := range map[string]func(w *wire.View){
		"slots out of order":         func(w *wire.View) { w.Replicas[0].Slot, w.Replicas[1].Slot = 1, 0 },
		"a slot with no owner":       func(w *wire.View) { w.Replicas[2].Replicas = nil },
		"a replica past the members": func(w *wire.View) { w.Replicas[3].Replicas = []uint32{2} },
	} {
		w := good.Wire()
		bend(&w)
		if _, err := r.ParseView(w); err == nil {
			t.Errorf("%s: view accepted", name)
		}
	}
}

func TestRingSpreadsKeys(t *testing.T) {
	r, err := NewRing(3, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, r.Slots())
	const n = 50_000
	for i := 0; i < n; i++ {
		counts[r.SlotOfKey(fmt.Sprintf("spread-%d", i))]++
	}
	empty := 0
	for _, c := range counts {
		if c == 0 {
			empty++
		}
	}
	// 48 slots over 50k keys: every slot should see traffic (an empty slot
	// means a degenerate arc).
	if empty > 0 {
		t.Fatalf("%d of %d slots received no keys", empty, r.Slots())
	}
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
