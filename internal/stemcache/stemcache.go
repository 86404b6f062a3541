// Package stemcache is a concurrent, sharded, generic in-memory key-value
// cache whose eviction engine is STEM — the set-level spatiotemporal
// capacity manager of Zhan, Jiang and Seth (MICRO 2010): each shard hosts
// the same core.Engine the hardware simulator in internal/core runs on, over
// key-value entries instead of block tags.
//
// The cache hashes every key to a 64-bit value and splits the bits three
// ways: the low bits select a shard (each shard has its own mutex — lock
// striping), the next bits select a set inside the shard (each set holds
// Ways entries), and the rest is the tag. Each set carries the paper's
// Set-level Capacity Demand Monitor (core.Monitor): a shadow directory of
// m-bit signatures of the set's evicted keys plus two k-bit saturating
// counters.
//
//   - Temporal management (§4.3-4.4): every set duels LRU against BIP
//     individually. When the temporal counter shows the shadow's opposite
//     policy winning, the set swaps — so scan-thrashed sets converge to BIP
//     and protect their resident entries while recency-friendly sets stay
//     LRU.
//   - Spatial management (§4.5-4.7): sets whose spatial counter saturates
//     (takers) couple with the least-demanding set of the same shard
//     (givers, tracked in a small heap) and spill their victims there
//     instead of dropping them; spilled entries are found by a secondary
//     probe. A giver receives only while its own counter shows slack, and
//     the pair dissolves once the giver has evicted every spilled entry.
//
// All operations are safe for concurrent use. A single shard is a
// single-writer state machine guarded by its mutex, and its counters are the
// only ones a request writes: Stats, TenantStats and the metrics registry are
// sums over the shards taken when somebody reads. What crosses shards is the
// tenants' residency and targets (atomics), the TTL-jitter RNG and the
// optional Observer (serialized).
//
// Entries may carry a TTL. Expiry is lazy: an expired entry is collected by
// whichever operation next touches it (and counts as a miss), never by a
// background sweeper. Every operation classifies an entry as live, stale or
// dead against at most one clock read, taken under the shard lock on first
// need — when the operation meets an entry that carries a deadline, or has a
// TTL to turn into one — so a key read exactly at its deadline is
// deterministically one or the other, never double-counted in the hit/miss
// statistics, and an operation that meets no deadline reads no clock.
//
// Beyond the passive Get/Set surface the cache keeps the storage states a
// read-through tier needs: LookupLoad classifies a key as fresh, stale
// (StaleTTL window), negative (a cached absence, NegativeTTL) or missing,
// and SetLoaded/SetNegative store an origin's answer with jittered TTLs. The
// cache never calls an origin; the server's lease protocol decides who does,
// one caller per key across the fleet. See loader.go. The cache starts no
// goroutines, ever.
//
// With default hashing, caches keyed by strings or integers are fully
// deterministic for a fixed Config.Seed: a single-goroutine run produces
// bit-identical Stats across processes. Other key types fall back to
// hash/maphash, which is deterministic within one process only.
package stemcache

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/hashfn"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tenant"
)

// Config parameterizes a Cache. The zero value is usable: every field has a
// documented default, and sizes are normalized (rounded up to powers of two
// where the bit-slicing scheme requires it).
type Config struct {
	// Capacity is the requested maximum number of resident entries across
	// all shards. It is rounded up so that Capacity = Shards × sets × Ways
	// with a power-of-two set count; Cache.Capacity reports the actual
	// value. Default: 65536.
	Capacity int
	// Shards is the number of independently locked shards; rounded up to a
	// power of two. More shards mean less lock contention and a smaller
	// spatial-coupling domain (takers only couple with givers of the same
	// shard). Default: 16.
	Shards int
	// Ways is the associativity of each set — how many entries share one
	// eviction pool and one demand monitor. Default: 8.
	Ways int
	// DefaultTTL is applied by Set; zero means entries never expire.
	// SetWithTTL overrides it per entry.
	DefaultTTL time.Duration
	// Seed drives every probabilistic device (BIP insertion, the 1/2^n
	// spatial decrement) and the default key hash mixing. Runs with equal
	// seeds and equal single-goroutine op sequences are identical.
	Seed uint64

	// STEM engine parameters, as in the paper's Table 3; zero selects the
	// default core.Config documents.

	// CounterBits is k, the width of the SC_S/SC_T saturating counters.
	// Default: 4.
	CounterBits int
	// SpatialShift is n: SC_S is decremented once per 2^n hits in
	// expectation. Default: 3.
	SpatialShift int
	// SignatureBits is m, the shadow-signature width. Default: 10.
	SignatureBits int
	// SelectorSize is the per-shard giver-heap capacity. Default: 16.
	SelectorSize int

	// Read-through storage (LookupLoad, SetLoaded, SetNegative; see
	// loader.go). All four knobs default to off, leaving the passive
	// Get/Set cache unchanged.

	// LoadTTL is the freshness TTL applied to values stored by SetLoaded.
	// Zero falls back to DefaultTTL; if that is also zero, loaded values
	// never expire and stale-while-revalidate never engages.
	LoadTTL time.Duration
	// StaleTTL is the stale-while-revalidate window: after a loaded
	// value's freshness TTL passes, LookupLoad keeps answering LoadStale
	// with the old value for up to StaleTTL longer, so the caller can
	// serve it while one refresher reloads it. Zero disables SWR (loaded
	// values simply expire).
	StaleTTL time.Duration
	// NegativeTTL caches origin misses: for NegativeTTL after SetNegative,
	// LookupLoad answers LoadNegative without anyone asking the origin.
	// Zero disables negative caching.
	NegativeTTL time.Duration
	// TTLJitter decorrelates mass expiry: each loaded value's freshness
	// TTL is shortened by a uniform random fraction drawn from
	// [0, TTLJitter), so a burst of loads does not install a cohort of
	// entries that all expire at the same instant. Must be in [0, 1);
	// zero disables jitter.
	TTLJitter float64

	// Tenants, when non-nil, enables multi-tenant namespacing: operations
	// through Cache.Tenant views are salted per tenant (disjoint key spaces)
	// and accounted per tenant, and ArbitrateTenants can move capacity
	// targets between tenants along the SCDM demand gradient. Nil keeps the
	// cache single-tenant with zero overhead. See tenant.go.
	Tenants *tenant.Registry
	// TenantPolicy selects how tenant capacity targets are enforced:
	// TenantObserve (default; account only), TenantStatic (fixed
	// weight-proportional partition) or TenantArbitrated (STEM-driven
	// giver/taker transfers). Requires Tenants for the enforcing modes.
	TenantPolicy TenantPolicy

	// Metrics, when non-nil, exports every monotonic Stats field as a derived
	// counter under "stemcache.*" (hits, misses, evictions, spills, ...):
	// reading the registry calls Stats once, no operation writes to it, and
	// the cache registers no live cell. Safe to share with a live
	// obs.Server.
	Metrics *obs.Registry
	// Observer, when non-nil, receives one obs.Event per mechanism action
	// (shadow_hit, class_change, policy_swap, couple, decouple, spill, receive), exactly
	// like the simulator's event trace. Events carry the global set id
	// (shard × setsPerShard + set) and the emitting shard's op tick; calls
	// are serialized across shards by an internal mutex.
	Observer obs.Observer

	// plainLRU switches both STEM mechanisms off (no spilling, no policy
	// swaps): the plain sharded set-associative LRU NewShardedLRU builds.
	plainLRU bool
}

// Validate reports the first problem that normalization cannot repair. A
// zero field always validates (it selects the documented default); what is
// rejected are values that would make the bit-slicing scheme or the STEM
// engine nonsensical: negative sizes, counter or signature widths beyond
// their hardware-meaningful ranges, or a negative TTL.
func (c Config) Validate() error {
	switch {
	case c.Capacity < 0:
		return fmt.Errorf("stemcache: Capacity must be >= 0, got %d", c.Capacity)
	case c.Shards < 0:
		return fmt.Errorf("stemcache: Shards must be >= 0, got %d", c.Shards)
	case c.Ways < 0 || c.Ways > sim.MaxWays:
		return fmt.Errorf("stemcache: Ways must be in [0, %d], got %d", sim.MaxWays, c.Ways)
	case c.DefaultTTL < 0:
		return fmt.Errorf("stemcache: DefaultTTL must be >= 0, got %v", c.DefaultTTL)
	case c.CounterBits < 0 || c.CounterBits > 32:
		return fmt.Errorf("stemcache: CounterBits must be in [0, 32], got %d", c.CounterBits)
	case c.SpatialShift < 0 || c.SpatialShift > 62:
		return fmt.Errorf("stemcache: SpatialShift must be in [0, 62], got %d", c.SpatialShift)
	case c.SignatureBits < 0 || c.SignatureBits > hashfn.MaxBits:
		return fmt.Errorf("stemcache: SignatureBits must be in [0, %d], got %d", hashfn.MaxBits, c.SignatureBits)
	case c.SelectorSize < 0:
		return fmt.Errorf("stemcache: SelectorSize must be >= 0, got %d", c.SelectorSize)
	case c.LoadTTL < 0:
		return fmt.Errorf("stemcache: LoadTTL must be >= 0, got %v", c.LoadTTL)
	case c.StaleTTL < 0:
		return fmt.Errorf("stemcache: StaleTTL must be >= 0, got %v", c.StaleTTL)
	case c.NegativeTTL < 0:
		return fmt.Errorf("stemcache: NegativeTTL must be >= 0, got %v", c.NegativeTTL)
	case c.TTLJitter < 0 || c.TTLJitter >= 1:
		return fmt.Errorf("stemcache: TTLJitter must be in [0, 1), got %v", c.TTLJitter)
	case c.TenantPolicy > TenantArbitrated:
		return fmt.Errorf("stemcache: unknown TenantPolicy %d", c.TenantPolicy)
	case c.TenantPolicy != TenantObserve && c.Tenants == nil:
		return fmt.Errorf("stemcache: TenantPolicy %v requires a tenant registry", c.TenantPolicy)
	}
	return nil
}

func (c *Config) normalize() {
	if c.Capacity <= 0 {
		c.Capacity = 1 << 16
	}
	if c.Shards <= 0 {
		c.Shards = 16
	}
	c.Shards = nextPow2(c.Shards)
	if c.Ways <= 0 {
		c.Ways = 8
	}
}

// engine maps the cache's STEM parameters onto the engine's Config, which
// owns their defaults.
func (c Config) engine() core.Config {
	return core.Config{
		CounterBits: c.CounterBits, SpatialShift: c.SpatialShift,
		SignatureBits: c.SignatureBits, SelectorSize: c.SelectorSize,
		Seed: c.Seed, DisableCoupling: c.plainLRU, DisableSwap: c.plainLRU,
	}
}

func nextPow2(v int) int {
	n := 1
	for n < v {
		n <<= 1
	}
	return n
}

// Cache is a thread-safe, sharded, STEM-managed key-value cache. Construct
// with New, NewWithHasher or NewShardedLRU; the zero value is not usable.
type Cache[K comparable, V any] struct {
	cfg    Config
	hasher func(K) uint64
	shards []shard[K, V]

	shardBits uint
	setBits   uint
	sets      int // sets per shard

	sig *hashfn.Hash // read-only after construction; safe concurrently

	obsMu    sync.Mutex // serializes Observer calls across shards
	observer obs.Observer

	now func() int64 // nanoseconds; swapped out by TTL tests

	// loadMu guards loadRNG, the TTL-jitter draw SetLoaded takes (loader.go);
	// its rank sits between closeMu and shard.mu, though it is never held
	// across a shard-lock acquisition.
	loadMu  sync.Mutex
	loadRNG *sim.RNG

	// Multi-tenant state (tenant.go): nil when no registry is configured.
	// tenantMu guards the arbitration epoch baselines inside ten; its rank
	// sits between loadMu and shard.mu, and ArbitrateTenants takes each shard
	// lock in turn while holding it, to sum the tenants' tally rows.
	tenantMu sync.Mutex
	ten      *tenantState

	closeMu sync.Mutex
	closed  bool
}

// New builds a cache for any comparable key type using the built-in hasher:
// deterministic (seeded FNV/mix) for string and integer keys, hash/maphash
// for everything else. See NewWithHasher to supply your own. It returns an
// error — never panics — when cfg fails Validate.
func New[K comparable, V any](cfg Config) (*Cache[K, V], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.normalize()
	return newCache[K, V](cfg, defaultHasher[K](cfg.Seed)), nil
}

// NewWithHasher builds a cache whose key hash is supplied by the caller.
// The hash must be deterministic and spread keys uniformly over 64 bits —
// shard, set and shadow-signature selection all consume its bits. It returns
// an error on a nil hasher or an invalid cfg.
func NewWithHasher[K comparable, V any](cfg Config, hasher func(K) uint64) (*Cache[K, V], error) {
	if hasher == nil {
		return nil, fmt.Errorf("stemcache: nil hasher")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.normalize()
	return newCache[K, V](cfg, hasher), nil
}

// NewShardedLRU builds the baseline the benchmarks compare against: the
// same sharded set-associative structure with both STEM mechanisms disabled,
// i.e. a plain lock-striped LRU cache. Geometry fields of cfg are honored;
// the STEM mechanisms are forced off.
func NewShardedLRU[K comparable, V any](cfg Config) (*Cache[K, V], error) {
	cfg.plainLRU = true
	return New[K, V](cfg)
}

func newCache[K comparable, V any](cfg Config, hasher func(K) uint64) *Cache[K, V] {
	perShard := (cfg.Capacity + cfg.Shards - 1) / cfg.Shards
	sets := nextPow2((perShard + cfg.Ways - 1) / cfg.Ways)
	c := &Cache[K, V]{
		cfg:       cfg,
		hasher:    hasher,
		shards:    make([]shard[K, V], cfg.Shards),
		shardBits: uint(log2(cfg.Shards)),
		setBits:   uint(log2(sets)),
		sets:      sets,
		sig:       core.NewSigHash(cfg.engine()),
		observer:  cfg.Observer,
		// The wall clock only decides TTL expiry, never eviction order, so
		// Stats stay seed-deterministic; tests swap c.now for a fake clock.
		now:     func() int64 { return time.Now().UnixNano() }, //lint:allow(determinism) TTL expiry boundary; eviction decisions never read this clock
		loadRNG: sim.NewRNG(cfg.Seed ^ 0x10ad),
	}
	if cfg.Tenants != nil {
		c.ten = newTenantState(cfg.Tenants, cfg.TenantPolicy, cfg.Seed)
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.eng = core.NewEngine(cfg.engine(), sets, cfg.Ways, i)
		if c.observer != nil {
			sh.eng.SetObserver(obs.ObserverFunc(c.emit))
		}
		sh.entries = make([]entry[K, V], sets*cfg.Ways)
		sh.tally = sh.one[:]
		if c.ten != nil {
			sh.tally = make([]tally, tenant.MaxTenants)
		}
	}
	c.registerMetrics(cfg.Metrics)
	return c
}

func log2(v int) uint {
	n := uint(0)
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Get returns the value cached under key. The second result reports whether
// the key was resident (and unexpired). A miss whose key was recently
// evicted registers as a shadow hit and feeds the set's demand counters —
// exactly the evidence stream the simulator derives from its miss path.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	return c.getT(tenant.DefaultID, key)
}

// getT is Get in tenant tid's namespace (Get is getT of the default tenant).
func (c *Cache[K, V]) getT(tid int, key K) (V, bool) {
	h := c.thash(tid, key)
	sh := c.shardOf(h)

	sh.mu.Lock()
	defer sh.mu.Unlock()
	// The clock is read under the lock, at most once and on first need: the
	// one instant decides residency, staleness and expiry together, so
	// operations serialized by the shard lock agree on an entry's state at its
	// exact deadline.
	var clk opClock
	if e, st := c.read(sh, tid, key, h, &clk, false); st == LoadHit {
		return e.val, true
	}
	var zero V
	return zero, false
}

// Set stores value under key with the cache's DefaultTTL, inserting or
// overwriting. On insert into a full set the STEM engine picks the victim:
// it is spilled to the set's coupled giver when the spatial state allows,
// and otherwise evicted with its signature recorded in the set's shadow
// directory.
func (c *Cache[K, V]) Set(key K, value V) {
	c.SetWithTTL(key, value, c.cfg.DefaultTTL)
}

// SetWithTTL is Set with an explicit time-to-live for this entry; ttl <= 0
// means the entry never expires.
func (c *Cache[K, V]) SetWithTTL(key K, value V, ttl time.Duration) {
	c.setWithTTLT(tenant.DefaultID, key, value, ttl)
}

// setWithTTLT is SetWithTTL in tenant tid's namespace.
func (c *Cache[K, V]) setWithTTLT(tid int, key K, value V, ttl time.Duration) {
	h := c.thash(tid, key)
	sh := c.shardOf(h)

	sh.mu.Lock()
	defer sh.mu.Unlock()
	var clk opClock
	sh.eng.Tick()
	c.store(sh, tid, key, value, h, &clk, 0, c.after(&clk, ttl), false)
}

// GetOrSet returns the value resident under key, or stores value (with the
// cache's DefaultTTL) when the key is absent. loaded reports which happened:
// true means actual is the pre-existing value, false means value was stored.
// The lookup counts as a Get (hit or miss) and a losing lookup counts as a
// Put, so Stats and the demand monitors see exactly what a Get-then-Set
// cache-aside pair would have shown them — minus the double hash and lock
// round trip. The check and the insert happen under one shard lock, so two
// racing GetOrSet calls for the same key agree on a single winner.
func (c *Cache[K, V]) GetOrSet(key K, value V) (actual V, loaded bool) {
	return c.GetOrSetWithTTL(key, value, c.cfg.DefaultTTL)
}

// GetOrSetWithTTL is GetOrSet with an explicit TTL for the inserted entry;
// ttl <= 0 means it never expires. The TTL of an already-resident entry is
// left untouched.
func (c *Cache[K, V]) GetOrSetWithTTL(key K, value V, ttl time.Duration) (actual V, loaded bool) {
	return c.getOrSetWithTTLT(tenant.DefaultID, key, value, ttl)
}

// getOrSetWithTTLT is GetOrSetWithTTL in tenant tid's namespace.
func (c *Cache[K, V]) getOrSetWithTTLT(tid int, key K, value V, ttl time.Duration) (actual V, loaded bool) {
	h := c.thash(tid, key)
	sh := c.shardOf(h)

	sh.mu.Lock()
	defer sh.mu.Unlock()
	var clk opClock
	if e, st := c.read(sh, tid, key, h, &clk, false); st == LoadHit {
		return e.val, true
	}
	// Absent, stale or a negative marker: the offered value wins, through
	// the same write path a Set after the missed Get would take.
	c.store(sh, tid, key, value, h, &clk, 0, c.after(&clk, ttl), false)
	return value, false
}

// Delete removes key and reports whether it was resident (an already-expired
// entry counts as absent). Stale entries and negative markers are resident
// state and are removed too, reporting true — Delete is how an invalidation
// cuts short a stale window or a cached absence. Deletion is not demand
// evidence: the key's signature is not entered into the shadow directory.
func (c *Cache[K, V]) Delete(key K) bool {
	return c.deleteT(tenant.DefaultID, key)
}

// deleteT is Delete in tenant tid's namespace.
func (c *Cache[K, V]) deleteT(tid int, key K) bool {
	h := c.thash(tid, key)
	sh := c.shardOf(h)

	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.eng.Tick()
	var clk opClock
	set, w, _ := c.lookup(sh, c.setOf(h), key, h, &clk)
	if w < 0 {
		return false
	}
	c.drop(sh, set, w)
	sh.stats.Deletes++
	return true
}

// Len returns the number of unexpired resident entries. Entries whose TTL
// has passed but which no operation has touched yet are swept (and counted
// as Expirations) by the call itself, so Len never over-reports occupancy —
// the server's STATS frame relies on this. The sweep holds one shard lock at
// a time, so under concurrent writers the total is consistent per shard, not
// globally.
func (c *Cache[K, V]) Len() int {
	nowN := c.now()
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		c.sweepExpired(sh, nowN)
		n += sh.live
		sh.mu.Unlock()
	}
	return n
}

// sweepExpired collects every expired entry of sh (caller holds sh.mu).
// Cooperatively cached entries go through the cc path, which dissolves the
// association when the giver drains.
func (c *Cache[K, V]) sweepExpired(sh *shard[K, V], nowN int64) {
	for i := range sh.entries {
		if e := &sh.entries[i]; e.valid && e.exp != 0 && nowN > e.exp {
			c.expire(sh, i/c.cfg.Ways, i%c.cfg.Ways)
		}
	}
}

// Capacity returns the actual entry capacity after Config normalization:
// Shards × sets-per-shard × Ways, which is at least Config.Capacity.
func (c *Cache[K, V]) Capacity() int { return len(c.shards) * c.sets * c.cfg.Ways }

// Shards returns the shard count after normalization.
func (c *Cache[K, V]) Shards() int { return len(c.shards) }

// Stats aggregates every shard's counters into one consistent-per-shard
// snapshot (shards are locked one at a time, so cross-shard totals may
// straddle concurrent operations). The TakerSets/GiverSets/CoupledSets
// fields are instantaneous set-role gauges recomputed from the live SCDM
// state at call time, not accumulated counters.
func (c *Cache[K, V]) Stats() Stats {
	var out Stats
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st, _ := sh.snapshot()
		sh.mu.Unlock()
		out.add(st)
	}
	return out
}

// Close empties the cache — every entry is released and every set
// association dissolved — so large cached values become collectable
// immediately. Close is idempotent, and the Cache remains structurally
// usable afterwards (a subsequent Set simply starts refilling it). Demand
// state (saturating counters, shadow signatures) and statistics persist.
func (c *Cache[K, V]) Close() {
	c.closeMu.Lock()
	defer c.closeMu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for w := range sh.entries {
			sh.entries[w] = entry[K, V]{}
		}
		sh.eng.Clear()
		sh.live = 0
		sh.mu.Unlock()
	}
	if c.ten != nil {
		for i := range c.ten.live {
			c.ten.live[i].Store(0)
		}
	}
}

func (c *Cache[K, V]) shardOf(h uint64) *shard[K, V] {
	return &c.shards[h&uint64(len(c.shards)-1)]
}

func (c *Cache[K, V]) setOf(h uint64) int {
	return int((h >> c.shardBits) & uint64(c.sets-1))
}

// sigOf computes the shadow signature from the tag bits (those not consumed
// by shard or set selection).
func (c *Cache[K, V]) sigOf(h uint64) uint32 {
	return c.sig.Sum(h >> (c.shardBits + c.setBits))
}

// emit forwards a shard engine's mechanism event (already carrying global set
// ids) to the observer, serializing across shards. Engines are handed the
// observer only when one is configured, and it is immutable after
// construction.
func (c *Cache[K, V]) emit(e obs.Event) {
	c.obsMu.Lock()
	c.observer.Event(e)
	c.obsMu.Unlock()
}
