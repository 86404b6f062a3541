// Package stemcache is the lockorder-analyzer fixture. Its rank directives
// mirror the real package's three lock classes: Cache.closeMu before
// shard.mu before Cache.obsMu.
package stemcache

import "sync"

type shard struct {
	mu sync.Mutex //lint:rank 1
}

// Cache mirrors the real package's three lock classes.
type Cache struct {
	closeMu sync.Mutex //lint:rank 0
	obsMu   sync.Mutex //lint:rank 2
	shards  []shard
}

// goodOrder acquires strictly down the hierarchy — no findings.
func (c *Cache) goodOrder() {
	c.closeMu.Lock()
	sh := &c.shards[0]
	sh.mu.Lock()
	c.obsMu.Lock()
	c.obsMu.Unlock()
	sh.mu.Unlock()
	c.closeMu.Unlock()
}

// badOrder takes a shard lock while already holding obsMu.
func (c *Cache) badOrder(sh *shard) {
	c.obsMu.Lock()
	sh.mu.Lock()
	sh.mu.Unlock()
	c.obsMu.Unlock()
}

// reentrant locks the same mutex twice on one path.
func (c *Cache) reentrant() {
	c.closeMu.Lock()
	c.closeMu.Lock()
	c.closeMu.Unlock()
	c.closeMu.Unlock()
}

// emit is a leaf that takes obsMu, like the real Cache.emit.
func (c *Cache) emit() {
	c.obsMu.Lock()
	defer c.obsMu.Unlock()
}

// reentrantThroughCall calls emit while already holding obsMu.
func (c *Cache) reentrantThroughCall() {
	c.obsMu.Lock()
	defer c.obsMu.Unlock()
	c.emit()
}

// lockShard is a leaf that takes a shard lock.
func (c *Cache) lockShard(sh *shard) {
	sh.mu.Lock()
	sh.mu.Unlock()
}

// badCallOrder calls into a shard acquisition while holding obsMu.
func (c *Cache) badCallOrder(sh *shard) {
	c.obsMu.Lock()
	defer c.obsMu.Unlock()
	c.lockShard(sh)
}

// emitAfterShard is legal: the shard lock is released before emit runs, so
// nothing is held at the call and the callee's acquisitions are fine.
func (c *Cache) emitAfterShard(sh *shard) {
	sh.mu.Lock()
	sh.mu.Unlock()
	c.emit()
}

// deferInLoop defers unlocks that pile up until function return.
func (c *Cache) deferInLoop() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		defer sh.mu.Unlock()
	}
}

// undocumentedPanic violates the panic convention.
func undocumentedPanic(ok bool) {
	if !ok {
		panic("cachefix: broken")
	}
}

// documentedPanic is the sanctioned form.
func documentedPanic(ok bool) {
	if !ok {
		// invariant: callers always pass ok; reaching here is corruption.
		panic("cachefix: broken")
	}
}
