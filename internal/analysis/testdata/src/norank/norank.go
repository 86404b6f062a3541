// Package obs is the lockorder-analyzer fixture for a package that declares
// no lock order: no field carries a rank directive, so only the re-entrancy
// checks apply, and they apply in every package.
package obs

import "sync"

// Registry mirrors a metrics registry: one unranked lock over its table.
type Registry struct {
	mu    sync.Mutex
	cells map[string]int
}

// add is a leaf that takes Registry.mu.
func (r *Registry) add(name string) {
	r.mu.Lock()
	r.cells[name]++
	r.mu.Unlock()
}

// doubleLock locks the same mutex twice on one path.
func (r *Registry) doubleLock() {
	r.mu.Lock()
	r.mu.Lock()
	r.mu.Unlock()
	r.mu.Unlock()
}

// reentrantThroughCall calls add while already holding the registry's lock.
func (r *Registry) reentrantThroughCall(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.add(name)
}

// addAfterUnlock is legal: the lock is released before add takes it.
func (r *Registry) addAfterUnlock(name string) {
	r.mu.Lock()
	_ = r.cells[name]
	r.mu.Unlock()
	r.add(name)
}
