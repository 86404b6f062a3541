package policy

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func newLRU(ways int) Policy { return New(LRU, ways, sim.NewRNG(1)) }

func fill(p Policy, ways int) {
	for w := 0; w < ways; w++ {
		p.OnInsert(w)
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{LRU: "LRU", BIP: "BIP", Dual: "Dual", Kind(9): "Kind(9)"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestOpposite(t *testing.T) {
	if Opposite(LRU) != BIP || Opposite(BIP) != LRU {
		t.Fatal("LRU and BIP must be mutual opposites")
	}
	if Opposite(Dual) != LRU || Opposite(SRRIP) != LRU {
		t.Fatal("non-dueling kinds must map to LRU")
	}
}

func TestNewPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(LRU, 0, sim.NewRNG(1)) },
		func() { New(LRU, -1, sim.NewRNG(1)) },
		func() { New(LRU, 4, nil) },
		func() { New(Kind(42), 4, sim.NewRNG(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestLRUOrdering(t *testing.T) {
	p := newLRU(4)
	fill(p, 4) // recency: 3 2 1 0
	if v := p.Victim(); v != 0 {
		t.Fatalf("victim = %d, want 0", v)
	}
	p.OnHit(0) // 0 3 2 1
	if v := p.Victim(); v != 1 {
		t.Fatalf("victim after hit = %d, want 1", v)
	}
	p.OnInsert(1) // reinsert promotes: 1 0 3 2
	if v := p.Victim(); v != 2 {
		t.Fatalf("victim after reinsert = %d, want 2", v)
	}
}

func TestLRUInvalidate(t *testing.T) {
	p := newLRU(4)
	fill(p, 4)
	p.OnInvalidate(0) // LRU way removed
	if p.Len() != 3 {
		t.Fatalf("Len = %d, want 3", p.Len())
	}
	if v := p.Victim(); v != 1 {
		t.Fatalf("victim = %d, want 1", v)
	}
	p.OnInvalidate(0) // double invalidate is a no-op
	if p.Len() != 3 {
		t.Fatal("double invalidate changed Len")
	}
	p.OnInvalidate(3) // MRU way removed
	p.OnInvalidate(1)
	p.OnInvalidate(2)
	if p.Len() != 0 || p.Victim() != -1 {
		t.Fatalf("empty policy: Len=%d Victim=%d", p.Len(), p.Victim())
	}
}

func TestLRUHitOnUnrankedWay(t *testing.T) {
	p := newLRU(4)
	p.OnHit(2) // tolerated: ranked as MRU insert
	if p.Len() != 1 || p.Victim() != 2 {
		t.Fatalf("Len=%d Victim=%d", p.Len(), p.Victim())
	}
}

func TestLRUReset(t *testing.T) {
	p := newLRU(4)
	fill(p, 4)
	p.Reset()
	if p.Len() != 0 || p.Victim() != -1 {
		t.Fatal("Reset did not empty the ranking")
	}
	fill(p, 4)
	if p.Victim() != 0 {
		t.Fatal("policy unusable after Reset")
	}
}

func TestLRUStackProperty(t *testing.T) {
	// Classic Mattson inclusion: replaying any access sequence, the recency
	// order of the a-way ranking must equal the first a entries of a wider
	// ranking restricted to those ways. We verify the cheaper invariant that
	// the victim is always the least recently touched present way, against a
	// reference model.
	p := newLRU(8)
	rng := sim.NewRNG(9)
	var order []int // reference: index 0 = LRU
	touch := func(w int, insert bool) {
		for i, v := range order {
			if v == w {
				order = append(order[:i], order[i+1:]...)
				break
			}
		}
		order = append(order, w)
		if insert {
			p.OnInsert(w)
		} else {
			p.OnHit(w)
		}
	}
	for i := 0; i < 10000; i++ {
		w := rng.Intn(8)
		touch(w, rng.OneIn(3))
		if rng.OneIn(17) && len(order) > 0 {
			v := order[0]
			p.OnInvalidate(v)
			order = order[1:]
		}
		wantVictim := -1
		if len(order) > 0 {
			wantVictim = order[0]
		}
		if got := p.Victim(); got != wantVictim {
			t.Fatalf("step %d: victim = %d, want %d", i, got, wantVictim)
		}
	}
}

func TestBIPInsertsMostlyLRU(t *testing.T) {
	p := New(BIP, 4, sim.NewRNG(3))
	fill(p, 4)
	// Insert a new way many times over a full set; it should usually remain
	// the victim (LRU insertion).
	lruInserts := 0
	const trials = 3200
	for i := 0; i < trials; i++ {
		p.OnInsert(i % 4)
		if p.Victim() == i%4 {
			lruInserts++
		}
	}
	frac := float64(lruInserts) / trials
	if frac < 0.93 || frac > 0.99 {
		t.Fatalf("BIP LRU-insertion fraction = %v, want ~31/32", frac)
	}
}

func TestBIPHitsPromote(t *testing.T) {
	p := New(BIP, 4, sim.NewRNG(3))
	fill(p, 4)
	v := p.Victim()
	p.OnHit(v)
	if p.Victim() == v {
		t.Fatal("BIP hit did not promote the block")
	}
}

// quickOps drives a policy with a random op sequence and checks the shared
// invariants: Len matches a reference set, victims are always present.
func quickOps(t *testing.T, kind Kind) {
	t.Helper()
	f := func(ops []uint8, seed uint64) bool {
		const ways = 6
		p := New(kind, ways, sim.NewRNG(seed))
		present := map[int]bool{}
		for _, op := range ops {
			w := int(op) % ways
			switch (op / 16) % 3 {
			case 0:
				p.OnInsert(w)
				present[w] = true
			case 1:
				p.OnInvalidate(w)
				delete(present, w)
			case 2:
				p.OnHit(w)
				present[w] = true // hit on unranked tolerated as insert
			}
			if p.Len() != len(present) {
				return false
			}
			v := p.Victim()
			if len(present) == 0 {
				if v != -1 {
					return false
				}
			} else if !present[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickInvariantsLRU(t *testing.T) { quickOps(t, LRU) }
func TestQuickInvariantsBIP(t *testing.T) { quickOps(t, BIP) }

func TestRecencyOrder(t *testing.T) {
	p := newLRU(4).(*Recency)
	fill(p, 4)
	got := p.RecencyOrder()
	want := []int{3, 2, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RecencyOrder = %v, want %v", got, want)
		}
	}
}

func TestSwapKind(t *testing.T) {
	p := New(LRU, 4, sim.NewRNG(1))
	fill(p, 4)
	p.OnHit(0) // recency: 0 3 2 1
	if !SwapKind(p, BIP) {
		t.Fatal("SwapKind refused a recency policy")
	}
	if p.Kind() != BIP {
		t.Fatalf("Kind = %v after swap, want BIP", p.Kind())
	}
	// Ranking must be preserved: victim is still way 1.
	if v := p.Victim(); v != 1 {
		t.Fatalf("victim after swap = %d, want 1 (ranking must survive)", v)
	}
	if !SwapKind(p, LRU) {
		t.Fatal("swap back refused")
	}
	if SwapKind(p, SRRIP) {
		t.Fatal("SwapKind accepted a non-dueling kind")
	}
	if SwapKind(New(SRRIP, 4, sim.NewRNG(1)), BIP) {
		t.Fatal("SwapKind accepted an RRIP policy")
	}
	if SwapKind(NewDual(4, sim.NewRNG(1), func() Kind { return LRU }), BIP) {
		t.Fatal("SwapKind accepted a Dual policy")
	}
}

func TestRRIPBasics(t *testing.T) {
	p := New(SRRIP, 4, sim.NewRNG(1))
	if p.Kind() != SRRIP {
		t.Fatalf("kind %v", p.Kind())
	}
	if p.Victim() != -1 {
		t.Fatal("empty victim")
	}
	fill(p, 4)
	if p.Len() != 4 {
		t.Fatalf("Len %d", p.Len())
	}
	// All inserted at RRPV 2: first victim scan ages everyone to 3 and
	// evicts way 0 (hand starts there).
	if v := p.Victim(); v != 0 {
		t.Fatalf("victim %d, want 0", v)
	}
}

func TestRRIPHitProtects(t *testing.T) {
	p := New(SRRIP, 4, sim.NewRNG(1))
	fill(p, 4)
	p.OnHit(0) // RRPV 0: survives the next few evictions
	v1 := p.Victim()
	if v1 == 0 {
		t.Fatal("hit block evicted first")
	}
	p.OnInvalidate(v1)
	v2 := p.Victim()
	if v2 == 0 {
		t.Fatal("hit block evicted second")
	}
}

func TestBRRIPInsertsMostlyDistant(t *testing.T) {
	p := New(BRRIP, 4, sim.NewRNG(5))
	fill(p, 4)
	distant := 0
	const trials = 3200
	for i := 0; i < trials; i++ {
		p.OnInsert(i % 4)
		if p.(*rrip).rrpv[i%4] == rripMax {
			distant++
		}
	}
	frac := float64(distant) / trials
	if frac < 0.93 || frac > 0.99 {
		t.Fatalf("BRRIP distant-insert fraction %v, want ~31/32", frac)
	}
}

func TestRRIPQuickInvariants(t *testing.T) {
	f := func(ops []uint8, seed uint64) bool {
		const ways = 6
		p := New(SRRIP, ways, sim.NewRNG(seed))
		present := map[int]bool{}
		for _, op := range ops {
			w := int(op) % ways
			switch (op / 16) % 3 {
			case 0:
				p.OnInsert(w)
				present[w] = true
			case 1:
				p.OnInvalidate(w)
				delete(present, w)
			case 2:
				p.OnHit(w)
				present[w] = true
			}
			if p.Len() != len(present) {
				return false
			}
			v := p.Victim()
			if len(present) == 0 {
				if v != -1 {
					return false
				}
			} else if !present[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewRRIPPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(SRRIP, 0, sim.NewRNG(1)) },
		func() { New(BRRIP, 4, nil) },
		func() { NewDual(4, sim.NewRNG(1), nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestDualRRIPFollowsChooser(t *testing.T) {
	mode := SRRIP
	p := NewDual(4, sim.NewRNG(1), func() Kind { return mode })
	if p.Kind() != Dual {
		t.Fatalf("kind %v", p.Kind())
	}
	fill(p, 4)
	r := p.(*rrip)
	p.OnInsert(0)
	if r.rrpv[0] != rripMax-1 {
		t.Fatalf("SRRIP-mode insert rrpv %d", r.rrpv[0])
	}
	mode = BRRIP
	distant := 0
	for i := 0; i < 320; i++ {
		p.OnInsert(1)
		if r.rrpv[1] == rripMax {
			distant++
		}
	}
	if distant < 280 {
		t.Fatalf("BRRIP-mode inserts distant only %d/320", distant)
	}
}

func TestRRIPReset(t *testing.T) {
	p := New(SRRIP, 4, sim.NewRNG(1))
	fill(p, 4)
	p.Reset()
	if p.Len() != 0 || p.Victim() != -1 {
		t.Fatal("Reset did not empty")
	}
}
