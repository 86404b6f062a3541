package policy

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
)

// listModel is the recency list written the obvious way: a slice of ranked
// ways, MRU first, and its own copy of the RNG stream.
type listModel struct {
	order []int
	rng   *sim.RNG
}

func (m *listModel) drop(way int) {
	if i := slices.Index(m.order, way); i >= 0 {
		m.order = slices.Delete(m.order, i, i+1)
	}
}

func (m *listModel) insert(way int, k Kind) {
	m.drop(way)
	if k == BIP && !m.rng.OneIn(BIPEpsilon) {
		m.order = append(m.order, way)
		return
	}
	m.order = slices.Insert(m.order, 0, way)
}

func (m *listModel) victim() int {
	if len(m.order) == 0 {
		return -1
	}
	return m.order[len(m.order)-1]
}

// TestRecencyMatchesModel drives the one recency list (as LRU, as BIP and as
// a Dual whose chooser flips at random) and the slice model with the same
// random operations — including hits on unranked ways, reinserts of ranked
// ways and invalidates of absent ones — and compares order, victim, length
// and RNG position after every step.
func TestRecencyMatchesModel(t *testing.T) {
	for _, kind := range []Kind{LRU, BIP, Dual} {
		for _, ways := range []int{1, 2, 16, 33, 300} {
			t.Run(fmt.Sprintf("%v/%d", kind, ways), func(t *testing.T) {
				seed := uint64(ways)<<8 | uint64(kind)
				polRNG, model := sim.NewRNG(seed), &listModel{rng: sim.NewRNG(seed)}
				cur := kind // the insertion rule in force; a Dual's chooser reads it
				var p Policy
				if kind == Dual {
					p = NewDual(ways, polRNG, func() Kind { return cur })
				} else {
					p = New(kind, ways, polRNG)
				}
				ops := sim.NewRNG(seed ^ 0xfeed)
				for step := 0; step < 4000; step++ {
					way := ops.Intn(ways)
					if kind == Dual {
						cur = []Kind{LRU, BIP}[ops.Intn(2)]
					}
					op := ops.Intn(16)
					switch {
					case op < 5:
						p.OnHit(way)
						model.insert(way, LRU)
					case op < 12:
						p.OnInsert(way)
						model.insert(way, cur)
					case op < 14:
						p.OnInvalidate(way)
						model.drop(way)
					case op < 15:
						// Evict the victim, as a full set would.
						if v := p.Victim(); v >= 0 {
							p.OnInvalidate(v)
							model.drop(v)
						}
					case ops.OneIn(8):
						p.Reset()
						model.order = nil
					}
					got := p.(*Recency).RecencyOrder()
					if !slices.Equal(got, model.order) {
						t.Fatalf("step %d (op %d, way %d): order %v, model %v", step, op, way, got, model.order)
					}
					if p.Victim() != model.victim() || p.Len() != len(model.order) {
						t.Fatalf("step %d: victim %d len %d, model %d %d", step, p.Victim(), p.Len(), model.victim(), len(model.order))
					}
					if *polRNG != *model.rng {
						t.Fatalf("step %d (op %d): policy and model have drawn different numbers of random values", step, op)
					}
				}
			})
		}
	}
}

// The widest set the 16-bit links can index ranks every way.
func TestRecencyWidestSet(t *testing.T) {
	p := New(LRU, sim.MaxWays, sim.NewRNG(1))
	for w := 0; w < sim.MaxWays; w++ {
		p.OnInsert(w)
	}
	p.OnHit(0)
	if p.Len() != sim.MaxWays || p.Victim() != 1 {
		t.Fatalf("Len %d Victim %d, want %d and 1", p.Len(), p.Victim(), sim.MaxWays)
	}
	p.OnInvalidate(sim.MaxWays - 1) // the MRU-most insert, now second
	if order := p.(*Recency).RecencyOrder(); order[0] != 0 || order[1] != sim.MaxWays-2 || len(order) != sim.MaxWays-1 {
		t.Fatalf("order starts %v (len %d)", order[:2], len(order))
	}
}
