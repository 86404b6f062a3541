package stemcache

// Read-through storage states: the cache half of the read-through tier. The
// cache never calls an origin itself; whoever fronts it (the server's lease
// protocol, internal/server/lease.go) classifies a key with LookupLoad, has
// one caller fetch the origin, and stores the answer with SetLoaded or
// SetNegative. What the cache contributes is the bounded pressure on the
// origin that the paper's receiving constraint asks of a miss storm:
//
//   - Negative caching: SetNegative installs a marker for
//     Config.NegativeTTL, so known-absent keys stop hammering the origin.
//   - TTL jitter: loaded values' freshness TTLs are decorrelated by a
//     random shortening (Config.TTLJitter) so one load burst does not turn
//     into one expiry burst.
//   - Stale-while-revalidate: with Config.StaleTTL set, a value past its
//     freshness deadline stays servable (LoadStale) while one caller
//     refreshes it — the foreground path never waits on the origin for a
//     key it has any value for.

import (
	"time"

	"repro/internal/tenant"
)

// LoadState classifies what LookupLoad found under a key.
type LoadState uint8

// LookupLoad outcomes.
const (
	// LoadMiss: nothing resident — the caller should load.
	LoadMiss LoadState = iota
	// LoadHit: a fresh value was returned.
	LoadHit
	// LoadStale: a value past its freshness deadline but inside the
	// StaleTTL window was returned; it is servable, and someone should
	// refresh it.
	LoadStale
	// LoadNegative: the key's absence is cached — SetNegative ran within
	// the last NegativeTTL.
	LoadNegative
)

// String names the state for logs and errors.
func (s LoadState) String() string {
	switch s {
	case LoadMiss:
		return "miss"
	case LoadHit:
		return "hit"
	case LoadStale:
		return "stale"
	case LoadNegative:
		return "negative"
	default:
		return "LoadState(?)"
	}
}

// LookupLoad is the load path's classifying read: like Get it counts one
// Get and feeds the demand monitors, but it distinguishes the four
// read-through states instead of collapsing them to found/not-found. A
// stale value is returned and counted as a hit (plus StaleServed); a
// negative marker counts as a miss (plus NegativeHits). Servers use this to
// answer LOAD frames.
func (c *Cache[K, V]) LookupLoad(key K) (V, LoadState) {
	return c.lookupLoadT(tenant.DefaultID, key)
}

// lookupLoadT is LookupLoad in tenant tid's namespace.
func (c *Cache[K, V]) lookupLoadT(tid int, key K) (V, LoadState) {
	h := c.thash(tid, key)
	sh := c.shardOf(h)

	sh.mu.Lock()
	defer sh.mu.Unlock()
	var clk opClock
	e, st := c.read(sh, tid, key, h, &clk, true)
	if st == LoadHit || st == LoadStale {
		return e.val, st
	}
	var zero V
	return zero, st
}

// SetLoaded stores value under key with the load path's TTL semantics: the
// freshness deadline is LoadTTL (DefaultTTL when LoadTTL is zero) shortened
// by TTL jitter, and with StaleTTL configured the entry then survives —
// stale but servable by LookupLoad — for StaleTTL longer before truly
// expiring. Servers call it when a client fills a lease.
func (c *Cache[K, V]) SetLoaded(key K, value V) {
	c.setLoadedT(tenant.DefaultID, key, value)
}

// setLoadedT is SetLoaded in tenant tid's namespace.
func (c *Cache[K, V]) setLoadedT(tid int, key K, value V) {
	ttl := c.cfg.LoadTTL
	if ttl <= 0 {
		ttl = c.cfg.DefaultTTL
	}
	ttl = c.jitterTTL(ttl)
	h := c.thash(tid, key)
	sh := c.shardOf(h)

	sh.mu.Lock()
	defer sh.mu.Unlock()
	var clk opClock
	var fresh int64
	exp := c.after(&clk, ttl)
	if ttl > 0 && c.cfg.StaleTTL > 0 {
		fresh, exp = exp, exp+int64(c.cfg.StaleTTL)
	}
	sh.eng.Tick()
	c.store(sh, tid, key, value, h, &clk, fresh, exp, false)
}

// SetNegative installs a negative marker under key for NegativeTTL: until
// it expires, LookupLoad answers LoadNegative for key and plain Get reports
// a miss. A no-op when NegativeTTL is zero. A later Set or SetLoaded
// overwrites the marker; Delete removes it.
func (c *Cache[K, V]) SetNegative(key K) {
	c.setNegativeT(tenant.DefaultID, key)
}

// setNegativeT is SetNegative in tenant tid's namespace.
func (c *Cache[K, V]) setNegativeT(tid int, key K) {
	if c.cfg.NegativeTTL <= 0 {
		return
	}
	var zero V
	h := c.thash(tid, key)
	sh := c.shardOf(h)

	sh.mu.Lock()
	defer sh.mu.Unlock()
	var clk opClock
	sh.eng.Tick()
	c.store(sh, tid, key, zero, h, &clk, 0, c.after(&clk, c.cfg.NegativeTTL), true)
}

// jitterTTL shortens ttl by a uniform fraction in [0, TTLJitter), the
// WithJitter-style decorrelation of mass expiry. The draw comes from the
// cache's seeded RNG (under loadMu), keeping single-goroutine runs
// reproducible.
func (c *Cache[K, V]) jitterTTL(ttl time.Duration) time.Duration {
	if ttl <= 0 || c.cfg.TTLJitter <= 0 {
		return ttl
	}
	c.loadMu.Lock()
	f := c.loadRNG.Float64()
	c.loadMu.Unlock()
	return ttl - time.Duration(f*c.cfg.TTLJitter*float64(ttl))
}
