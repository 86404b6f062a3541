package stemcache

import (
	"sync"
	"time"

	"repro/internal/core"
)

// entry is one resident key-value pair. A giver set may hold entries whose
// hash maps to its coupled taker; those carry the cc ("cooperatively
// cached") bit, the software form of the paper's CC bit.
type entry[K comparable, V any] struct {
	key  K
	val  V
	hash uint64
	exp  int64 // expiry in unix nanoseconds; 0 = never
	// fresh is the read-through freshness deadline in unix nanoseconds:
	// past fresh but not past exp the entry is stale — served by LookupLoad
	// while one caller refreshes it, a miss for plain Get. 0 means fresh
	// until exp (every plain Set).
	fresh int64
	valid bool
	cc    bool
	// neg marks a cached absence (SetNegative): the origin said the key
	// does not exist, and that answer is cached until exp. The value is the
	// zero V; plain Get reports a miss, LookupLoad reports LoadNegative.
	neg bool
	// ten is the owning tenant's registry id (0 = default namespace). It
	// travels with the entry through spills so that eviction anywhere —
	// local, cooperative, expiry — debits the right tenant's residency.
	ten uint16
}

// tally is one tenant's Get accounting inside one shard.
type tally struct {
	gets, hits, misses, shadowHits uint64
}

// shard is one lock-striped slice of the cache: its own mutex, STEM engine
// (per-set policies and demand monitors, giver heap, RNG, mechanism counters)
// and the entries the engine's decisions move around. All fields are guarded
// by mu, and the counters among them are the only ones a request writes:
// every other view (Stats, TenantStats, the metrics registry) is summed from
// them when somebody reads.
type shard[K comparable, V any] struct {
	mu      sync.Mutex
	eng     core.Engine
	entries []entry[K, V] // sets × Ways, set-major
	live    int
	// tally is the Get accounting, one row per tenant id; an untenanted cache
	// has the single row one, inline so that shards do not share its line.
	tally []tally
	one   [1]tally
	stats Stats // every other counter; snapshot completes it from tally and the engine
}

// set returns the ways of sh's set idx.
func (c *Cache[K, V]) set(sh *shard[K, V], idx int) []entry[K, V] {
	return sh.entries[idx*c.cfg.Ways:][:c.cfg.Ways]
}

// freeWay returns the first invalid way of s, or -1 when the set is full.
func freeWay[K comparable, V any](s []entry[K, V]) int {
	for w := range s {
		if !s[w].valid {
			return w
		}
	}
	return -1
}

// opClock is one operation's TTL clock: c.now is read at most once, under the
// shard lock, the first time the operation meets a deadline — a matching
// entry's exp or fresh, or a ttl to add to now. An operation that meets none
// reads no clock; one that does classifies live, stale and dead against that
// single instant. The zero value is ready; read is a flag, not a zero
// sentinel, because a fake clock may well say 0.
type opClock struct {
	t    int64
	read bool
}

// at returns the operation's instant, reading the clock on first need.
func (c *Cache[K, V]) at(k *opClock) int64 {
	if !k.read {
		k.t, k.read = c.now(), true
	}
	return k.t
}

// after returns the deadline ttl past the operation's instant; ttl <= 0 means
// never (0) and reads no clock.
func (c *Cache[K, V]) after(k *opClock, ttl time.Duration) int64 {
	if ttl <= 0 {
		return 0
	}
	return c.at(k) + int64(ttl)
}

// find returns the way of set idx holding key — as a local entry, or with cc
// as a cooperatively cached one — or -1, plus whether the entry is stale
// (past its freshness deadline but not yet expired). A matching entry that
// has expired is collected on the spot and reported as absent (lazy expiry).
// Residency, staleness and death are all decided by the operation's one
// instant (clk), so a key read exactly at a deadline classifies the same way
// for every operation serialized at that instant; an entry without deadlines
// reads no clock.
func (c *Cache[K, V]) find(sh *shard[K, V], idx int, cc bool, key K, h uint64, clk *opClock) (way int, stale bool) {
	s := c.set(sh, idx)
	for w := range s {
		e := &s[w]
		if e.valid && e.cc == cc && e.hash == h && e.key == key {
			if e.exp != 0 && c.at(clk) > e.exp {
				c.expire(sh, idx, w)
				return -1, false
			}
			return w, e.fresh != 0 && c.at(clk) > e.fresh
		}
	}
	return -1, false
}

// lookup finds key's resident entry: in its home set idx, or — when idx is a
// coupled taker — cooperatively cached in the giver (the secondary probe).
// set is where the entry sits; way is -1 when the key is absent.
func (c *Cache[K, V]) lookup(sh *shard[K, V], idx int, key K, h uint64, clk *opClock) (set, way int, stale bool) {
	if way, stale = c.find(sh, idx, false, key, h, clk); way >= 0 {
		return idx, way, stale
	}
	if g := sh.eng.GiverOf(idx); g >= 0 {
		if way, stale = c.find(sh, g, true, key, h, clk); way >= 0 {
			return g, way, stale
		}
	}
	return idx, -1, false
}

// touch tells the engine a lookup for home set idx found (set, way). A local
// find is local-capacity evidence for the demand counters; a cooperative one
// is evidence for neither set of the pair and only moves the giver's policy.
func (c *Cache[K, V]) touch(sh *shard[K, V], idx, set, way int) {
	if set == idx {
		sh.eng.Hit(idx, way)
	} else {
		sh.eng.Touch(set, way)
	}
}

// read is the lookup every Get-like operation shares (caller holds sh.mu):
// it counts the Get, finds the entry and classifies it. load selects the
// load path's accounting — a stale entry is served (a hit, plus StaleServed)
// and a negative marker is a NegativeHit — where a plain Get reports both as
// misses and leaves the entry resident for the load path. Only LoadMiss, no
// entry at all, is shadow-directory demand evidence. The entry is nil on
// LoadMiss.
func (c *Cache[K, V]) read(sh *shard[K, V], tid int, key K, h uint64, clk *opClock, load bool) (*entry[K, V], LoadState) {
	sh.eng.Tick()
	t := &sh.tally[tid]
	t.gets++

	idx := c.setOf(h)
	set, w, stale := c.lookup(sh, idx, key, h, clk)
	if w < 0 {
		t.misses++
		c.consultShadow(sh, idx, h, tid)
		return nil, LoadMiss
	}
	e := &c.set(sh, set)[w]
	switch {
	case e.neg:
		t.misses++
		if load {
			sh.stats.NegativeHits++
		}
		return e, LoadNegative
	case stale && !load:
		t.misses++
		return e, LoadStale
	}
	t.hits++
	if set != idx {
		sh.stats.SecondaryHits++
	}
	c.touch(sh, idx, set, w)
	if stale {
		sh.stats.StaleServed++
		return e, LoadStale
	}
	return e, LoadHit
}

// consultShadow runs the miss path's demand update for set idx (see
// core.Engine.Miss). tid is the tenant whose miss this is: a shadow hit is
// that tenant's "one more entry would have hit" evidence, the signal the
// cross-tenant arbiter aggregates.
func (c *Cache[K, V]) consultShadow(sh *shard[K, V], idx int, h uint64, tid int) {
	if sh.eng.Miss(idx, c.sigOf(h)) {
		sh.tally[tid].shadowHits++
	}
}

// store is the shared write path (caller holds sh.mu and has ticked the
// engine): overwrite a resident entry — local or cooperative, live or stale
// — or run the miss path and insert. fresh/neg carry the read-through
// semantics; a plain Set passes fresh 0 and neg false, resetting any loader
// state the key had.
func (c *Cache[K, V]) store(sh *shard[K, V], tid int, key K, value V, h uint64, clk *opClock, fresh, exp int64, neg bool) {
	sh.stats.Puts++
	idx := c.setOf(h)
	if set, w, _ := c.lookup(sh, idx, key, h, clk); w >= 0 {
		e := &c.set(sh, set)[w]
		e.val, e.exp, e.fresh, e.neg = value, exp, fresh, neg
		// An overwrite touches a resident entry, though it is not a Get hit
		// for Stats.
		c.touch(sh, idx, set, w)
		return
	}
	// Miss: consult the shadow directory, then fill locally (the library
	// analogue of the simulator's miss path).
	c.consultShadow(sh, idx, h, tid)
	c.insert(sh, idx, tid, entry[K, V]{key: key, val: value, hash: h, exp: exp, fresh: fresh, neg: neg, valid: true, ten: uint16(tid)})
}

// insert puts ent into set idx — the one place an entry enters the cache. An
// at-target tenant recycles its own footprint even while the set has free
// ways (quotaVictim); otherwise a free way is used, and only a full set asks
// the engine for a victim, which the tenant rules may override (victimFor).
func (c *Cache[K, V]) insert(sh *shard[K, V], idx, tid int, ent entry[K, V]) {
	s := c.set(sh, idx)
	way := c.quotaVictim(s, tid)
	if way < 0 {
		way = freeWay(s)
	}
	if way < 0 {
		way = c.victimFor(s, sh.eng.Victim(idx), tid)
	}
	if s[way].valid {
		c.vacate(sh, idx, way)
	}
	s[way] = ent
	sh.eng.Fill(idx, way)
	sh.live++
	c.tLiveInc(tid)
}

// vacate moves the entry in (idx, w) where the engine sends it: into the
// coupled giver as a cooperatively cached entry — unless its tenant has no
// capacity grant left to spend (spillAllowed) — or out of the cache.
func (c *Cache[K, V]) vacate(sh *shard[K, V], idx, w int) {
	v := c.set(sh, idx)[w]
	g := sh.eng.Evict(idx, c.sigOf(v.hash), v.cc, !c.spillAllowed(&v))
	if g < 0 {
		sh.live--
		c.tLiveDec(v.ten)
		sh.stats.Evictions++
		return
	}
	gs := c.set(sh, g)
	gw := freeWay(gs)
	if gw < 0 {
		gw = sh.eng.Victim(g)
		c.vacate(sh, g, gw)
	}
	v.cc = true
	gs[gw] = v
	sh.eng.Fill(g, gw)
}

// drop removes the entry at (idx, w) outside the eviction path — a delete or
// an expiry; dropping a giver's last cooperatively cached entry dissolves
// the association.
func (c *Cache[K, V]) drop(sh *shard[K, V], idx, w int) {
	e := &c.set(sh, idx)[w]
	owner, cc := e.ten, e.cc
	*e = entry[K, V]{}
	sh.eng.Remove(idx, w, cc)
	sh.live--
	c.tLiveDec(owner)
}

// expire collects the expired entry at (idx, w).
func (c *Cache[K, V]) expire(sh *shard[K, V], idx, w int) {
	c.drop(sh, idx, w)
	sh.stats.Expirations++
}

// snapshot returns sh's counters completed with the Get accounting summed
// over the tenant rows and with what the engine keeps: the mechanism counters
// and the instantaneous set-role gauges (caller holds sh.mu).
func (sh *shard[K, V]) snapshot() (Stats, core.Census) {
	st, n, cen := sh.stats, sh.eng.Counts(), sh.eng.Census()
	for i := range sh.tally {
		st.Gets += sh.tally[i].gets
		st.Hits += sh.tally[i].hits
		st.Misses += sh.tally[i].misses
	}
	st.ShadowHits, st.PolicySwaps = n.ShadowHits, n.PolicySwaps
	st.Couplings, st.Decouplings = n.Couplings, n.Decouplings
	st.Spills, st.Receives = n.Spills, n.Receives
	st.TakerSets, st.GiverSets = uint64(cen.TakerClass), uint64(cen.GiverClass)
	st.CoupledSets = uint64(cen.Takers + cen.Givers)
	return st, cen
}
