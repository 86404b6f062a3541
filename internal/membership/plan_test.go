package membership

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/wire"
)

// RebalanceWith runs one demand round on a fixed plan instead of the
// demand signal's: the moves execute and commit exactly as Rebalance's do.
// It lets the package's external tests place a move no seeded workload
// plans on its own.
func (m *Manager) RebalanceWith(plan ...cluster.Move) (Report, error) {
	m.round++
	m.rounds.Inc()
	return m.migrate(plan)
}

// planManager is a manager with no cluster behind it: enough for the pure
// planning steps, which read only the config and the round number.
func planManager(cfg Config, events *[]obs.Event) *Manager {
	if events != nil {
		cfg.Observer = obs.ObserverFunc(func(e obs.Event) { *events = append(*events, e) })
	}
	return &Manager{cfg: cfg.withDefaults()}
}

func allAlive(n int) []bool {
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	return alive
}

func demand(takers, sets uint32) wire.NodeDemand {
	return wire.NodeDemand{Sets: sets, TakerSets: takers, GiverSets: sets - takers}
}

func TestClassifyOrdersAndObserves(t *testing.T) {
	var events []obs.Event
	m := planManager(Config{}, &events)
	m.round = 3

	states := []nodeState{
		{id: 0, demand: demand(50, 100), load: 10}, // taker (frac 0.5)
		{id: 1, demand: demand(10, 100), load: 2},  // giver (frac 0.1)
		{id: 2, demand: demand(30, 100), load: 5},  // neutral
		{id: 3, demand: demand(90, 100), load: 40}, // taker, more loaded
		{id: 4, demand: demand(0, 100), load: 1},   // giver, least loaded
	}
	takers, givers := m.classify(states, allAlive(len(states)))
	if len(takers) != 2 || takers[0].id != 3 || takers[1].id != 0 {
		t.Fatalf("takers = %+v, want ids [3 0] by load desc", takers)
	}
	if len(givers) != 2 || givers[0].id != 4 || givers[1].id != 1 {
		t.Fatalf("givers = %+v, want ids [4 1] by load asc", givers)
	}
	if len(events) != len(states) {
		t.Fatalf("observed %d events, want %d", len(events), len(states))
	}
	wantClass := map[int]string{0: "taker", 1: "giver", 2: "neutral", 3: "taker", 4: "giver"}
	for _, e := range events {
		if e.Type != obs.EvNodeDemand || e.Tick != 3 {
			t.Fatalf("event %+v: want EvNodeDemand at round 3", e)
		}
		if e.Class != wantClass[e.Set] {
			t.Fatalf("node %d classified %q, want %q", e.Set, e.Class, wantClass[e.Set])
		}
	}
}

func TestPickGiverRespectsBalance(t *testing.T) {
	states := []nodeState{{id: 0, load: 100}, {id: 1, load: 30}, {id: 2, load: 10}}
	givers := []nodeState{states[2], states[1]} // load-ascending

	// Moving a 20-load slot off the 100-load taker: node 2 (10+20 < 100).
	if g := pickGiver(givers, states, 20, 100); g != 2 {
		t.Fatalf("pickGiver = %d, want 2", g)
	}
	// A slot so hot the move cannot improve balance: no giver qualifies.
	if g := pickGiver(givers, states, 95, 100); g != -1 {
		t.Fatalf("pickGiver = %d, want -1 (no improving move)", g)
	}
}

// TestPlanSkipsDeadMembers: a member that is not alive is never a taker or
// a giver, however its (stale) demand and load books read. Here the dead
// node 1 carries the most load at taker-level demand, and the dead node 2
// is the idlest giver; with them alive the plan would move slot 3 from 1
// to 2.
func TestPlanSkipsDeadMembers(t *testing.T) {
	owners := []int{0, 0, 0, 1, 1, 3}
	loads := []uint64{5, 3, 9, 20, 20, 1}
	states := func() []nodeState {
		st := []nodeState{
			{id: 0, demand: demand(60, 100)},
			{id: 1, demand: demand(90, 100)},
			{id: 2, demand: demand(0, 100)},
			{id: 3, demand: demand(0, 100)},
		}
		for s, o := range owners {
			st[o].load += loads[s]
		}
		return st
	}

	if got := planManager(Config{}, nil).plan(states(), allAlive(4), owners, loads); fmt.Sprint(got) != "[{3 1 2 0} {1 0 3 0}]" {
		t.Fatalf("all-alive plan = %v, want slot 3 1→2 then slot 1 0→3", got)
	}

	var events []obs.Event
	alive := []bool{true, false, false, true}
	got := planManager(Config{}, &events).plan(states(), alive, owners, loads)
	// Node 0 (17 load) sheds its coldest slots onto node 3 (1 load): slot 1
	// (3), then slot 0 (5); each keeps node 3 below node 0's load.
	if fmt.Sprint(got) != "[{1 0 3 0} {0 0 3 0}]" {
		t.Fatalf("plan = %v, want slot 1 then slot 0 from node 0 to node 3", got)
	}
	for _, e := range events {
		if !alive[e.Set] {
			t.Fatalf("dead node %d classified: %+v", e.Set, e)
		}
	}
	if len(events) != 2 {
		t.Fatalf("observed %d demand events, want 2 (the alive members)", len(events))
	}
}
