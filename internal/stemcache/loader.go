package stemcache

// Read-through loading: on a miss the cache fetches the value from its
// origin itself, instead of reporting the miss and leaving the fetch to the
// caller. The machinery in this file is the fleet-level analogue of the
// paper's receiving constraint — it bounds how much pressure a miss storm
// may impose on the origin:
//
//   - Singleflight: concurrent GetOrLoad calls for one key share a single
//     loader invocation; the others wait on it and share its result or
//     error, so a hot-key miss costs one origin fetch, not thousands.
//   - Negative caching: a loader answering ErrNotFound installs a negative
//     marker for Config.NegativeTTL, so known-absent keys stop hammering
//     the origin.
//   - TTL jitter: loaded values' freshness TTLs are decorrelated by a
//     random shortening (Config.TTLJitter) so one load burst does not turn
//     into one expiry burst.
//   - Stale-while-revalidate: with Config.StaleTTL set, a value past its
//     freshness deadline is served immediately (as a hit) while a bounded
//     worker pool refreshes it in the background — the foreground path
//     never waits on the loader for a key it has any value for.

import (
	"context"
	"errors"
	"time"

	"repro/internal/tenant"
)

// ErrNotFound is the loader contract for "this key does not exist at the
// origin": a loader returning it (or wrapping it) makes GetOrLoad cache the
// absence for Config.NegativeTTL and report ErrNotFound to callers. Any
// other loader error is passed through uncached.
var ErrNotFound = errors.New("stemcache: key not found")

// Loader fetches the value for key from an origin (a database, an upstream
// service, a slower cache tier). It is called by GetOrLoad only on a miss
// that no other goroutine is already loading, and by the
// stale-while-revalidate workers; it must be safe for concurrent use across
// distinct keys. Return ErrNotFound for a key the origin does not have.
type Loader[K comparable, V any] func(ctx context.Context, key K) (V, error)

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
	// LoadNegative: the key's absence is cached — the origin reported
	// ErrNotFound within the last NegativeTTL.
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

// flight is one in-progress load. Waiters block on done; val and err are
// written before done closes, so reading them afterwards needs no lock.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// tkey scopes the singleflight and pending-refresh tables per tenant: equal
// keys in different namespaces are different origin fetches.
type tkey[K comparable] struct {
	tid int
	key K
}

// refreshJob is one queued stale-while-revalidate refresh.
type refreshJob[K comparable, V any] struct {
	tid    int
	key    K
	loader Loader[K, V]
}

// GetOrLoad returns the value under key, calling loader to fetch it from
// the origin when the cache cannot answer. The outcomes, in the order they
// are tried:
//
//   - Fresh value resident: returned, loader not called (a Get hit).
//   - Negative marker resident: ErrNotFound, loader not called.
//   - Stale value resident (StaleTTL window): returned immediately and a
//     background refresh with loader is scheduled — the foreground path
//     never waits on the loader for a key it has a servable value for.
//   - Miss: the loader runs under singleflight. The first goroutine to
//     miss calls the loader; every other GetOrLoad for the same key that
//     arrives before it finishes waits and shares the result or error.
//     A successful load is stored with LoadTTL (jittered); ErrNotFound
//     installs a negative marker for NegativeTTL; other loader errors are
//     returned to all waiters and cache nothing.
//
// ctx bounds this call's wait: a waiter whose ctx expires returns ctx.Err()
// while the load it was sharing continues for the others. The leader's ctx
// is the one the loader sees, so cancelling it fails the load for every
// sharer — the usual singleflight trade.
func (c *Cache[K, V]) GetOrLoad(ctx context.Context, key K, loader Loader[K, V]) (V, error) {
	return c.getOrLoadT(ctx, tenant.DefaultID, key, loader)
}

// getOrLoadT is GetOrLoad in tenant tid's namespace.
func (c *Cache[K, V]) getOrLoadT(ctx context.Context, tid int, key K, loader Loader[K, V]) (V, error) {
	var zero V
	if loader == nil {
		return zero, errors.New("stemcache: nil loader")
	}
	v, state := c.lookupLoadT(tid, key)
	switch state {
	case LoadHit:
		return v, nil
	case LoadNegative:
		return zero, ErrNotFound
	case LoadStale:
		c.scheduleRefresh(tid, key, loader)
		return v, nil
	}
	return c.load(ctx, tid, key, loader)
}

// LookupLoad is the load path's classifying read: like Get it counts one
// Get and feeds the demand monitors, but it distinguishes the four
// read-through states instead of collapsing them to found/not-found. A
// stale value is returned and counted as a hit (plus StaleServed); a
// negative marker counts as a miss (plus NegativeHits). Servers use this to
// answer LOAD frames without a local loader; library callers usually want
// GetOrLoad instead.
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

// resident returns key's live entry — fresh, or a cached absence — without
// a Get's side effects: no Get counted, no demand-monitor feed, no policy
// touch. A stale or absent key reports false. load calls it under loadMu
// (rank loadMu → shard.mu) after its caller's counted lookup has missed.
func (c *Cache[K, V]) resident(tid int, key K) (e entry[K, V], ok bool) {
	h := c.thash(tid, key)
	sh := c.shardOf(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var clk opClock
	set, w, stale := c.lookup(sh, c.setOf(h), key, h, &clk)
	if w < 0 || stale {
		return e, false
	}
	return c.set(sh, set)[w], true
}

// load runs the singleflight miss path: one goroutine per key becomes the
// leader and calls the loader; the rest wait on its flight and share the
// outcome. No lock is held while the loader runs.
func (c *Cache[K, V]) load(ctx context.Context, tid int, key K, loader Loader[K, V]) (V, error) {
	var zero V
	fk := tkey[K]{tid: tid, key: key}
	c.loadMu.Lock()
	if f, ok := c.flights[fk]; ok {
		c.loadMu.Unlock()
		c.loadDedup.Add(1)
		select {
		case <-f.done:
			return f.val, f.err
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
	// No flight: a leader may have stored key and removed its flight since
	// this caller's lookup missed. Serve what it stored; a stale entry still
	// loads, so revalidation reaches the origin.
	if e, ok := c.resident(tid, key); ok {
		c.loadMu.Unlock()
		if e.neg {
			return zero, ErrNotFound
		}
		return e.val, nil
	}
	f := &flight[V]{done: make(chan struct{})}
	c.flights[fk] = f
	c.loadMu.Unlock()

	c.loads.Add(1)
	t0 := c.now()
	v, err := loader(ctx, key)
	if d := c.now() - t0; d > 0 {
		c.loaderLat.Observe(uint64(d) / uint64(time.Microsecond))
	} else {
		c.loaderLat.Observe(0)
	}
	switch {
	case err == nil:
		c.setLoadedT(tid, key, v)
	case errors.Is(err, ErrNotFound):
		v, err = zero, ErrNotFound
		c.setNegativeT(tid, key)
	}
	// Publish before unblocking waiters, and store into the cache before
	// removing the flight: a goroutine that found the flight gone finds
	// the value resident instead.
	f.val, f.err = v, err
	c.loadMu.Lock()
	delete(c.flights, fk)
	c.loadMu.Unlock()
	close(f.done)
	return v, err
}

// SetLoaded stores value under key with the load path's TTL semantics: the
// freshness deadline is LoadTTL (DefaultTTL when LoadTTL is zero) shortened
// by TTL jitter, and with StaleTTL configured the entry then survives —
// stale but servable by the load path — for StaleTTL longer before truly
// expiring. GetOrLoad calls this for every successful load; servers call it
// directly when a remote client fills a lease.
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
// it expires, the load path answers ErrNotFound for key without consulting
// any loader, and plain Get reports a miss. A no-op when NegativeTTL is
// zero. A later Set or SetLoaded overwrites the marker; Delete removes it.
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

// scheduleRefresh enqueues a background revalidation of key unless one is
// already queued or in flight. A saturated queue drops the job — the next
// stale serve will retry — so the foreground path never blocks on the
// refresh pool.
func (c *Cache[K, V]) scheduleRefresh(tid int, key K, loader Loader[K, V]) {
	if c.refreshC == nil {
		return
	}
	fk := tkey[K]{tid: tid, key: key}
	c.loadMu.Lock()
	defer c.loadMu.Unlock()
	if c.loadClosed {
		return
	}
	if _, inflight := c.flights[fk]; inflight {
		return
	}
	if _, queued := c.pending[fk]; queued {
		return
	}
	select {
	case c.refreshC <- refreshJob[K, V]{tid: tid, key: key, loader: loader}:
		c.pending[fk] = struct{}{}
	default:
	}
}

// revalidateWorker is one pool worker: it drains refresh jobs, running each
// through the same singleflight table as foreground loads (so a foreground
// miss arriving mid-refresh waits on the refresh instead of double-loading).
// The loop ends when Close closes the channel; ctx cancellation makes
// in-flight loaders return early.
func (c *Cache[K, V]) revalidateWorker(ctx context.Context) {
	defer c.refreshWG.Done()
	for job := range c.refreshC {
		c.load(ctx, job.tid, job.key, job.loader)
		c.loadMu.Lock()
		delete(c.pending, tkey[K]{tid: job.tid, key: job.key})
		c.loadMu.Unlock()
	}
}
