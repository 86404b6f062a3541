package stemcache

// Multi-tenant capacity management: the paper's spatial mechanism lifted one
// level. Inside a cache, sets that starve (shadow hits drive SC_S up) take
// capacity from sets with slack. With a tenant registry configured, the same
// reasoning runs across namespaces sharing one cache: each tenant's misses
// that land in the shadow directory are "one more entry would have hit"
// evidence, accumulated per epoch, and ArbitrateTenants moves per-tenant
// capacity targets from givers (no shadow demand) to takers (sustained
// shadow demand running at their target) — never past a giver's MinReserve,
// the receiving constraint of §4.6 applied to tenants instead of sets.
//
// Tenants are isolated by hashing, not by partitioned storage: tenant i's
// keys are hashed with a per-tenant salt, so equal keys in different
// namespaces occupy distinct (shard, set, tag) coordinates and distinct
// shadow signatures. Tenant 0 (the default namespace) uses salt zero, which
// keeps every pre-tenant single-namespace workload bit-identical to a cache
// with no registry at all.
//
// Targets are enforced at insert time by tenant-aware victim selection
// (victimFor): an over-target tenant recycles its own footprint first, and
// no insert evicts an entry whose owner sits at or below its MinReserve
// while an alternative victim exists in the set. Enforcement is therefore
// set-local and approximate — targets are pressure, not hard walls — which
// is exactly the paper's posture: capacity follows demand gradients rather
// than fixed partitions.

import (
	"sync/atomic"
	"time"

	"repro/internal/sim"
	"repro/internal/tenant"
)

// TenantPolicy selects how per-tenant capacity targets are enforced.
type TenantPolicy uint8

const (
	// TenantObserve accounts per-tenant demand but enforces nothing: the
	// free-for-all baseline. Targets are still computed (so TenantStats can
	// report them) but victim selection ignores them.
	TenantObserve TenantPolicy = iota
	// TenantStatic enforces fixed weight-proportional targets (the static
	// partition baseline): each tenant's share is StaticTargets of the
	// registry configs, recomputed only when the tenant population changes.
	TenantStatic
	// TenantArbitrated enforces targets that ArbitrateTenants moves each
	// epoch along the giver/taker demand gradient — the STEM mode.
	TenantArbitrated
)

// String names the policy for logs and benchmark reports.
func (p TenantPolicy) String() string {
	switch p {
	case TenantObserve:
		return "observe"
	case TenantStatic:
		return "static"
	case TenantArbitrated:
		return "arbitrated"
	default:
		return "TenantPolicy(?)"
	}
}

// tenantState is everything a tenant-enabled cache tracks beyond its shards.
// The arrays are fixed at tenant.MaxTenants so no tenant operation allocates.
// live and target are atomics because they are cross-shard state, not
// statistics: an insert under any shard lock reads both (tOverTarget). The
// request counters live in each shard's tally rows and are summed on read
// (TenantStats). The epoch baselines (last*) belong to Cache.tenantMu.
type tenantState struct {
	reg    *tenant.Registry
	policy TenantPolicy
	// salt[i] perturbs tenant i's key hashes; salt[0] is zero so the default
	// namespace hashes exactly as an untenanted cache does.
	salt [tenant.MaxTenants]uint64

	live   [tenant.MaxTenants]atomic.Int64
	target [tenant.MaxTenants]atomic.Int64

	// Epoch baselines and the last-seen tenant population, guarded by
	// Cache.tenantMu: ArbitrateTenants diffs the cumulative counters against
	// these to recover per-epoch demand.
	lastGets   [tenant.MaxTenants]uint64
	lastShadow [tenant.MaxTenants]uint64
	lastCount  int
}

func newTenantState(reg *tenant.Registry, policy TenantPolicy, seed uint64) *tenantState {
	ts := &tenantState{reg: reg, policy: policy}
	for i := 1; i < tenant.MaxTenants; i++ {
		ts.salt[i] = sim.Mix64(seed ^ 0x7e4a_97e5 ^ uint64(i)*0x9e3779b97f4a7c15)
	}
	return ts
}

// TenantRegistry returns the registry the cache was configured with, or nil.
func (c *Cache[K, V]) TenantRegistry() *tenant.Registry {
	if c.ten == nil {
		return nil
	}
	return c.ten.reg
}

// TenantView is a Cache handle whose operations run in one tenant's
// namespace: keys are salted per tenant, so equal keys in different views
// are distinct entries, and every operation feeds that tenant's demand
// accounting. It is a value — copy it freely. Obtain one from Cache.Tenant.
type TenantView[K comparable, V any] struct {
	c  *Cache[K, V]
	id int
}

// Tenant returns a view of the cache scoped to tenant id (a registry id from
// Resolve/Register). An out-of-range id — or any id on a cache with no
// registry — folds to the default tenant, mirroring the registry's own
// overflow behavior.
func (c *Cache[K, V]) Tenant(id int) TenantView[K, V] {
	if c.ten == nil || id < 0 || id >= tenant.MaxTenants {
		id = tenant.DefaultID
	}
	return TenantView[K, V]{c: c, id: id}
}

// ID returns the tenant id the view is scoped to.
func (t TenantView[K, V]) ID() int { return t.id }

// Get is Cache.Get in the view's namespace.
func (t TenantView[K, V]) Get(key K) (V, bool) { return t.c.getT(t.id, key) }

// Set is Cache.Set in the view's namespace.
func (t TenantView[K, V]) Set(key K, value V) {
	t.c.setWithTTLT(t.id, key, value, t.c.cfg.DefaultTTL)
}

// SetWithTTL is Cache.SetWithTTL in the view's namespace.
func (t TenantView[K, V]) SetWithTTL(key K, value V, ttl time.Duration) {
	t.c.setWithTTLT(t.id, key, value, ttl)
}

// GetOrSet is Cache.GetOrSet in the view's namespace.
func (t TenantView[K, V]) GetOrSet(key K, value V) (actual V, loaded bool) {
	return t.c.getOrSetWithTTLT(t.id, key, value, t.c.cfg.DefaultTTL)
}

// GetOrSetWithTTL is Cache.GetOrSetWithTTL in the view's namespace.
func (t TenantView[K, V]) GetOrSetWithTTL(key K, value V, ttl time.Duration) (actual V, loaded bool) {
	return t.c.getOrSetWithTTLT(t.id, key, value, ttl)
}

// Delete is Cache.Delete in the view's namespace.
func (t TenantView[K, V]) Delete(key K) bool { return t.c.deleteT(t.id, key) }

// LookupLoad is Cache.LookupLoad in the view's namespace.
func (t TenantView[K, V]) LookupLoad(key K) (V, LoadState) { return t.c.lookupLoadT(t.id, key) }

// SetLoaded is Cache.SetLoaded in the view's namespace.
func (t TenantView[K, V]) SetLoaded(key K, value V) { t.c.setLoadedT(t.id, key, value) }

// SetNegative is Cache.SetNegative in the view's namespace.
func (t TenantView[K, V]) SetNegative(key K) { t.c.setNegativeT(t.id, key) }

// thash maps (tenant, key) to the cache's 64-bit hash space. The per-tenant
// salt keeps namespaces disjoint end to end: shard, set, tag and shadow
// signature all derive from the salted hash.
func (c *Cache[K, V]) thash(tid int, key K) uint64 {
	h := c.hasher(key)
	if c.ten != nil && tid != 0 {
		h ^= c.ten.salt[tid]
	}
	return h
}

// Per-tenant residency hooks. Each is a single nil check when the cache has
// no registry, keeping the untenanted hot path unchanged.

func (c *Cache[K, V]) tLiveInc(tid int) {
	if c.ten != nil {
		c.ten.live[tid].Add(1)
	}
}

func (c *Cache[K, V]) tLiveDec(tid uint16) {
	if c.ten != nil {
		c.ten.live[tid].Add(-1)
	}
}

// tOverTarget reports whether tid's residency has reached its capacity
// target (an unset target never binds).
func (c *Cache[K, V]) tOverTarget(tid int) bool {
	t := c.ten.target[tid].Load()
	return t > 0 && c.ten.live[tid].Load() >= t
}

// tReserveProtected reports whether evicting one of vid's entries would take
// it below its configured MinReserve — the receiving constraint.
func (c *Cache[K, V]) tReserveProtected(vid int) bool {
	r := c.ten.reg.Config(vid).MinReserve
	return r > 0 && c.ten.live[vid].Load() <= int64(r)
}

// quotaVictim returns the way of one of tid's own local entries in set s
// (tags t) to recycle, when tid's residency has reached its enforced target
// — or -1, letting the normal free-way / policy-victim path run. A target is
// a bound on residency, not on churn: an at-target tenant keeps inserting,
// but each insert into a set already holding one of its entries replaces
// that entry instead of growing the footprint.
func (c *Cache[K, V]) quotaVictim(s []entry[K, V], t []uint64, tid int) int {
	if c.ten == nil || c.ten.policy == TenantObserve || !c.tOverTarget(tid) {
		return -1
	}
	for w, tag := range t {
		if tag&(tagValid|tagCC) == tagValid && int(s[w].ten) == tid {
			return w
		}
	}
	return -1
}

// spillAllowed reports whether victim v may be cooperatively cached instead
// of evicted. An over-target owner's victims always leave the cache: spilled
// capacity is capacity granted by demand, and a tenant past its target has
// no grant to spend.
func (c *Cache[K, V]) spillAllowed(v *entry[K, V]) bool {
	return c.ten == nil || c.ten.policy == TenantObserve || !c.tOverTarget(int(v.ten))
}

// victimFor picks the way to evict from full set s for an insert by tenant
// tid, given way, the engine's choice. With no enforcement it is exactly
// that. With
// TenantStatic or TenantArbitrated enforcement, two overrides apply in
// order: an over-target tenant recycles its own resident entries before
// touching anyone else's, and a victim owned by a reserve-protected tenant
// is passed over while the set holds any admissible alternative. Both
// overrides stay inside the set — the STEM spill machinery still decides
// where the victim goes.
func (c *Cache[K, V]) victimFor(s []entry[K, V], way, tid int) int {
	if way < 0 || c.ten == nil || c.ten.policy == TenantObserve {
		return way
	}
	if int(s[way].ten) != tid && c.tOverTarget(tid) {
		for w := range s {
			if int(s[w].ten) == tid {
				return w
			}
		}
	}
	if v := &s[way]; int(v.ten) != tid && c.tReserveProtected(int(v.ten)) {
		for w := range s {
			if e := &s[w]; int(e.ten) == tid || !c.tReserveProtected(int(e.ten)) {
				return w
			}
		}
	}
	return way
}

// TenantStats is one tenant's slice of the cache's demand accounting: the
// cumulative request counters, the instantaneous residency, and the current
// capacity target the arbiter (or static partitioner) assigned.
type TenantStats struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Gets   uint64 `json:"gets"`
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// ShadowHits is the tenant's SCDM evidence: misses whose key signature
	// was still in a shadow directory — hits one more entry would have kept.
	ShadowHits uint64 `json:"shadow_hits"`
	Live       int    `json:"live"`
	Target     int    `json:"target"`
}

// HitRate returns Hits/Gets, or 0 for a tenant that has seen no Gets.
func (s TenantStats) HitRate() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Gets)
}

// TenantStats snapshots every registered tenant's accounting, in id order.
// The request counters are summed over the same shard rows Stats sums (one
// shard lock at a time: consistent per shard, not globally), so over all
// tenants they add up to Stats' Gets, Hits, Misses and ShadowHits. Nil when
// the cache has no registry.
func (c *Cache[K, V]) TenantStats() []TenantStats {
	if c.ten == nil {
		return nil
	}
	out := make([]TenantStats, c.ten.reg.Len())
	for i := range out {
		out[i] = TenantStats{
			ID:     i,
			Name:   c.ten.reg.Name(i),
			Live:   int(c.ten.live[i].Load()),
			Target: int(c.ten.target[i].Load()),
		}
	}
	for s := range c.shards {
		sh := &c.shards[s]
		sh.mu.Lock()
		for i := range out {
			out[i].Gets += sh.tally[i].gets
			out[i].Hits += sh.tally[i].hits
			out[i].Misses += sh.tally[i].misses
			out[i].ShadowHits += sh.tally[i].shadowHits
		}
		sh.mu.Unlock()
	}
	return out
}

// ArbitrateTenants runs one arbitration epoch: it diffs each tenant's
// cumulative gets/shadow-hit counters against the previous epoch's
// baselines, classifies tenants as givers and takers, and moves capacity
// targets along the demand gradient (tenant.Arbitrate). Targets are rebased
// to the static weight-proportional split whenever the tenant population
// changed since the last epoch — a new tenant starts from its fair share,
// then earns or cedes capacity by evidence.
//
// Under TenantStatic the epoch only rebases and advances baselines (targets
// are the partition); under TenantObserve targets are maintained the same
// way but nothing enforces them. The returned outcomes are the arbitrated
// moves (nil unless the policy is TenantArbitrated). Callers drive epochs on
// whatever cadence suits them — a server ticker, a load generator's op
// count; the cache never arbitrates on its own.
func (c *Cache[K, V]) ArbitrateTenants() []tenant.Outcome {
	if c.ten == nil {
		return nil
	}
	c.tenantMu.Lock()
	defer c.tenantMu.Unlock()
	capEntries := c.Capacity()
	n := c.ten.reg.Len()
	if n != c.ten.lastCount {
		for i, t := range tenant.StaticTargets(c.ten.reg.Configs(), capEntries) {
			c.ten.target[i].Store(int64(t))
		}
		c.ten.lastCount = n
	}
	ds := make([]tenant.Demand, n)
	// TenantStats takes each shard.mu in turn, under tenantMu; [:n] because a
	// tenant may have registered since n was read (the registry only grows).
	for i, ts := range c.TenantStats()[:n] {
		ds[i] = tenant.Demand{
			ID:         i,
			Live:       ts.Live,
			Target:     ts.Target,
			Gets:       ts.Gets - c.ten.lastGets[i],
			ShadowHits: ts.ShadowHits - c.ten.lastShadow[i],
			Cfg:        c.ten.reg.Config(i),
		}
		c.ten.lastGets[i], c.ten.lastShadow[i] = ts.Gets, ts.ShadowHits
	}
	if c.ten.policy != TenantArbitrated {
		return nil
	}
	out := tenant.Arbitrate(ds, capEntries)
	for _, o := range out {
		c.ten.target[o.ID].Store(int64(o.Target))
	}
	return out
}
