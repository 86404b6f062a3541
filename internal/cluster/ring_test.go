package cluster

import (
	"encoding/binary"
	"fmt"
	"slices"
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
// at least one slot, an owner for every slot, members only. A holder
// adopts the view the wire decoder parsed, so the ring's view must come
// back whole through a VIEW frame, and a bent one is refused both when it
// is sent and when it is read. Its slot count is its own: holders hash
// keys modulo it, so a view with no slots would divide by zero.
func TestParseViewChecksView(t *testing.T) {
	r, err := NewRing(2, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	good := *r.InitialView([]string{"a:1", "b:2"})
	good.Epoch = 3
	frame, err := wire.AppendRequest(nil, &wire.Request{Op: wire.OpView, View: good}, wire.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	req, _, err := wire.DecodeRequest(frame, wire.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(req.View) != fmt.Sprint(good) {
		t.Fatalf("decoded view %v, want %v", req.View, good)
	}

	// The frame ends in the replica table: a uint16 slot count, then per
	// slot a uint8 replica count and a uint32 node per replica. Each
	// slot of the ring's view has its owner alone, 5 bytes.
	for _, c := range []struct {
		name string
		want string // in the encoder's and the decoder's error
		bend func(v *wire.View)
		edit func(f []byte) []byte
	}{
		{"a view with 0 slots", "view 3 has no slots", func(v *wire.View) { v.Replicas = nil }, func(f []byte) []byte {
			f = f[:len(f)-4*5]
			binary.BigEndian.PutUint16(f[len(f)-2:], 0)
			binary.BigEndian.PutUint32(f[8:12], uint32(len(f)-wire.HeaderLen))
			return f
		}},
		{"a slot with no owner", "slot 2 lists", func(v *wire.View) { v.Replicas[2] = nil }, func(f []byte) []byte {
			// Slots 2 and 3, [1 r2][1 r3], become [0][2 r2 r3]: same length.
			tail := f[len(f)-10:]
			r2 := append([]byte(nil), tail[1:5]...)
			tail[0], tail[1] = 0, 2
			copy(tail[2:6], r2)
			return f
		}},
		{"a replica past the members", "slot 3 names node 2 of 2 members", func(v *wire.View) { v.Replicas[3] = []int{2} }, func(f []byte) []byte {
			binary.BigEndian.PutUint32(f[len(f)-4:], 2)
			return f
		}},
	} {
		v := good
		v.Replicas = make([][]int, len(good.Replicas))
		for s, set := range good.Replicas {
			v.Replicas[s] = slices.Clone(set)
		}
		c.bend(&v)
		if _, err := wire.AppendRequest(nil, &wire.Request{Op: wire.OpView, View: v}, wire.Limits{}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: encoding gave %v, want an error naming %q", c.name, err, c.want)
		}
		if _, _, err := wire.DecodeRequest(c.edit(slices.Clone(frame)), wire.Limits{}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: decoding gave %v, want an error naming %q", c.name, err, c.want)
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
