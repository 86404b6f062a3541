package sbc

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

type capture struct{ events []obs.Event }

func (c *capture) Event(e obs.Event) { c.events = append(c.events, e) }

func (c *capture) count(t obs.EventType) uint64 {
	var n uint64
	for _, e := range c.events {
		if e.Type == t {
			n++
		}
	}
	return n
}

func driveAssociation(c *Cache, geom sim.Geometry, n int) {
	for i := 0; i < n; i++ {
		// Set 0 thrashes (source), sets 1-3 hit within capacity
		// (destination candidates).
		c.Access(sim.Access{Block: geom.BlockFor(uint64(i%(geom.Ways+2)), 0)})
		c.Access(sim.Access{Block: geom.BlockFor(0, 1+i%3), Write: i%5 == 0})
	}
}

func TestObserverEventsReconcileWithStats(t *testing.T) {
	geom := sim.Geometry{Sets: 8, Ways: 4, LineSize: 64}
	c := New(geom, 3)
	cap := &capture{}
	c.SetObserver(cap)
	driveAssociation(c, geom, 20000)
	st := c.Stats()

	if st.Spills == 0 || st.Couplings == 0 {
		t.Fatalf("workload did not exercise association: %+v", st)
	}
	checks := []struct {
		ev   obs.EventType
		want uint64
	}{
		{obs.EvSpill, st.Spills},
		{obs.EvReceive, st.Receives},
		{obs.EvCouple, st.Couplings},
		{obs.EvDecouple, st.Decouplings},
	}
	for _, ck := range checks {
		if got := cap.count(ck.ev); got != ck.want {
			t.Errorf("%v events = %d, stats say %d", ck.ev, got, ck.want)
		}
	}
	for _, e := range cap.events {
		if e.ScS < 0 || e.ScS > c.satMax {
			t.Fatalf("saturation out of range: %+v", e)
		}
		if e.Partner < 0 || e.Partner >= geom.Sets || e.Partner == e.Set {
			t.Fatalf("bad partner: %+v", e)
		}
	}
}

func TestIntrospectCountsAssociations(t *testing.T) {
	geom := sim.Geometry{Sets: 8, Ways: 4, LineSize: 64}
	c := New(geom, 3)
	driveAssociation(c, geom, 20000)

	st := c.Introspect()
	takers, givers := 0, 0
	for i := 0; i < geom.Sets; i++ {
		if c.Partner(i) < 0 {
			continue
		}
		if c.sets[i].source {
			takers++
		} else {
			givers++
		}
	}
	if st.Takers != takers || st.Givers != givers || st.Coupled != takers+givers {
		t.Fatalf("Introspect %+v vs live takers=%d givers=%d", st, takers, givers)
	}
	if st.PolicySets["LRU"] != geom.Sets {
		t.Fatalf("policy census %v", st.PolicySets)
	}
}

func TestObserverDoesNotPerturbSimulation(t *testing.T) {
	geom := sim.Geometry{Sets: 16, Ways: 4, LineSize: 64}
	run := func(observe bool) sim.Stats {
		c := New(geom, 11)
		if observe {
			c.SetObserver(obs.ObserverFunc(func(obs.Event) {}))
		}
		rng := sim.NewRNG(5)
		for i := 0; i < 50000; i++ {
			c.Access(sim.Access{Block: uint64(rng.Intn(4096)), Write: rng.OneIn(4)})
		}
		return c.Stats()
	}
	if run(false) != run(true) {
		t.Fatal("attaching an observer changed simulation behaviour")
	}
}
