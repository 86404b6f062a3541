// Package membership is the lockorder-analyzer fixture for the membership
// tier's hierarchy. The tests bind it to fixture/internal/membership, so
// the membership lock ranks apply: Manager.mu before Agent.mu.
package membership

import "sync"

// Manager mirrors the authoritative view (the outer rank).
type Manager struct {
	mu    sync.Mutex
	epoch uint64
	agent *Agent
}

// Agent mirrors a node's pushed view and peer table (innermost rank).
type Agent struct {
	mu    sync.Mutex
	epoch uint64
}

// goodOrder acquires down the hierarchy — no findings.
func (m *Manager) goodOrder() {
	m.mu.Lock()
	m.agent.mu.Lock()
	m.agent.mu.Unlock()
	m.mu.Unlock()
}

// goodHandoff releases the agent's lock before taking the manager's — no
// findings.
func (m *Manager) goodHandoff() {
	m.agent.mu.Lock()
	m.agent.mu.Unlock()
	m.mu.Lock()
	m.mu.Unlock()
}

// badAgentOrder updates the manager's view from inside the agent's
// critical section.
func (m *Manager) badAgentOrder() {
	m.agent.mu.Lock()
	m.mu.Lock()
	m.mu.Unlock()
	m.agent.mu.Unlock()
}

// badReentrant applies a view while already holding the agent's lock.
func (a *Agent) badReentrant() {
	a.mu.Lock()
	a.apply(2)
	a.mu.Unlock()
}

// apply installs a view epoch under the agent's lock.
func (a *Agent) apply(epoch uint64) {
	a.mu.Lock()
	if epoch > a.epoch {
		a.epoch = epoch
	}
	a.mu.Unlock()
}
