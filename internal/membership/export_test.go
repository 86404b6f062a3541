package membership

import "repro/internal/cluster"

// ApplyMoves runs a fixed plan through apply, the executor every
// transition uses, and commits it the same way. It lets the package's
// external tests place a move no join, leave or failover plans on its own.
func (m *Manager) ApplyMoves(plan ...cluster.Move) (Report, error) {
	return m.apply(Report{Node: -1}, m.View().Members, plan, -1)
}

// Agent returns node i's agent, once Bootstrap has run.
func (r *Rig) Agent(i int) *Agent { return r.agents[i] }
