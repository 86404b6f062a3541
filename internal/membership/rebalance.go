package membership

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/wire"
)

// nodeState is one member's standing within a demand round's plan.
type nodeState struct {
	id     int
	demand wire.NodeDemand
	load   uint64
}

// Rebalance runs one demand round — STEM's taker/giver coupling at node
// granularity: pull every serving member's demand snapshot (the aggregate
// of its per-set SCDM monitors) through a heartbeat, so the round decides on
// demand as it stands, classify takers and givers, and move up to
// MaxMovesPerEpoch of the takers' coldest loaded slots to givers. A round
// that plans a move runs it through apply, like a join, leave or failover,
// and commits even when the first move fails; one that plans nothing
// commits nothing. The report reflects what completed, even alongside an
// error.
func (m *Manager) Rebalance() (Report, error) {
	m.round++
	m.rounds.Inc()

	m.mu.Lock()
	alive := m.aliveLocked()
	m.mu.Unlock()
	states := make([]nodeState, len(alive))
	for i, ok := range alive {
		states[i].id = i
		if !ok {
			continue
		}
		if err := m.heartbeat(i); err != nil {
			return Report{Node: -1, Round: m.round}, fmt.Errorf("membership: demand pull from node %d: %w", i, err)
		}
		states[i].demand = m.demand[i]
	}
	loads := m.cl.TakeSlotLoads()
	owners := m.cl.Ring().Owners()
	for s, o := range owners {
		states[o].load += loads[s]
	}
	return m.migrate(m.plan(states, alive, owners, loads))
}

// migrate runs the current round's plan through apply. An empty plan
// commits nothing.
func (m *Manager) migrate(plan []cluster.Move) (Report, error) {
	report := Report{Node: -1, Round: m.round}
	if len(plan) == 0 {
		return report, nil
	}
	return m.apply(report, plan, -1, func(mv cluster.Move) {
		m.migrations.Inc()
		m.keysMoved.Add(uint64(mv.Keys))
		m.observe(obs.Event{
			Type: obs.EvSlotMigrate, Tick: m.round, Set: mv.Slot,
			ScS: mv.From, Partner: mv.To, Life: uint64(mv.Keys),
		})
	})
}

// plan lists a round's moves: each taker sheds its COLDEST loaded slots to
// the least loaded giver. Shedding cold slots is the node-level analog of a
// giver donating ways to a taker set: the saturated node keeps its hot
// data local and gains the shed slot's capacity for it, while the slack
// node absorbs load it can easily serve. (Shedding the hottest slot would
// merely transplant the overload onto the giver.) A move must also improve
// the pairwise balance — the giver must stay below the taker's pre-move
// load, mirroring the set-level rule that a giver's SC_S MSB must be clear
// to accept spills. The load books in states and the ownership counts are
// updated as moves are planned, so one round's moves do not all pile onto
// the same giver and no node is stripped of its last slot.
//
// states is indexed by node id; only alive members take part. owners and
// loads are the ring's slot→owner table and the round's per-slot loads.
func (m *Manager) plan(states []nodeState, alive []bool, owners []int, loads []uint64) []cluster.Move {
	takers, givers := m.classify(states, alive)
	if len(takers) == 0 || len(givers) == 0 {
		return nil
	}
	owned := slotCounts(owners, len(states))
	var moves []cluster.Move
	for _, taker := range takers {
		if len(moves) >= m.cfg.MaxMovesPerEpoch {
			break
		}
		var slots []int
		for s, o := range owners {
			if o == taker.id {
				slots = append(slots, s)
			}
		}
		slices.SortFunc(slots, func(a, b int) int { return cmp.Or(cmp.Compare(loads[a], loads[b]), a-b) })
		for _, slot := range slots {
			if len(moves) >= m.cfg.MaxMovesPerEpoch || owned[taker.id] <= 1 {
				break
			}
			load := loads[slot]
			if load == 0 {
				continue // nothing routed here this round: no signal to act on
			}
			g := pickGiver(givers, states, load, states[taker.id].load)
			if g < 0 {
				continue
			}
			moves = append(moves, cluster.Move{Slot: slot, From: taker.id, To: g})
			owned[taker.id]--
			states[taker.id].load -= load
			states[g].load += load
		}
	}
	return moves
}

// demandScore folds a node's snapshot into one starvation figure in
// [0, 1]: the larger of its taker-set fraction (how many sets are pinned
// at saturation right now) and its mean SC_S saturation (how hard the
// whole population of counters is pushing). The max matters: a uniformly
// thrashing cache can hold high mean saturation while few sets sit at the
// exact maximum at poll time, and vice versa.
func demandScore(d wire.NodeDemand) float64 {
	return max(d.TakerFrac(), d.Saturation())
}

// classify splits the alive members into takers (demand-saturated, most
// loaded first) and givers (slack, least loaded first), observing one
// EvNodeDemand per member. Ties break by node id so the plan is
// deterministic. A member that is not alive is neither.
func (m *Manager) classify(states []nodeState, alive []bool) (takers, givers []nodeState) {
	for _, st := range states {
		if !alive[st.id] {
			continue
		}
		score := demandScore(st.demand)
		class := "neutral"
		switch {
		case score >= m.cfg.TakerFrac:
			class = "taker"
			takers = append(takers, st)
		case score <= m.cfg.GiverFrac:
			class = "giver"
			givers = append(givers, st)
		}
		m.observe(obs.Event{
			Type: obs.EvNodeDemand, Tick: m.round, Set: st.id,
			ScS: int(st.demand.TakerSets), ScT: int(st.demand.GiverSets),
			Life: uint64(st.demand.CoupledSets), Class: class,
		})
	}
	slices.SortFunc(takers, func(a, b nodeState) int { return cmp.Or(cmp.Compare(b.load, a.load), a.id-b.id) })
	slices.SortFunc(givers, func(a, b nodeState) int { return cmp.Or(cmp.Compare(a.load, b.load), a.id-b.id) })
	return takers, givers
}

// pickGiver returns the id of the least-loaded giver that can absorb a
// slot of the given load while staying below the taker's pre-move load, or
// -1. states carries the live load books (updated by prior planned moves).
func pickGiver(givers []nodeState, states []nodeState, slotLoad, takerLoad uint64) int {
	best, bestLoad := -1, uint64(0)
	for _, g := range givers {
		load := states[g.id].load
		if load+slotLoad >= takerLoad {
			continue // the move would not improve the pairwise balance
		}
		if best < 0 || load < bestLoad {
			best, bestLoad = g.id, load
		}
	}
	return best
}
