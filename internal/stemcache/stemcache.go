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
// Set-level Capacity Demand Monitor: a shadow directory of m-bit signatures
// of the set's evicted keys plus two k-bit saturating counters
// (core.Monitor).
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
//     Unlike the paper (§4.6: at the giver's winning-policy rank, MRU under
//     LRU), a spilled entry enters its giver as BIP inserts: at the LRU end,
//     except one in 32 at MRU. It has shown no reuse, and at MRU it would
//     push the giver's live entries out: on zipf keys the paper's rank hits
//     0.6–0.7 points below the sharded LRU. A secondary hit promotes it.
//
// All operations are safe for concurrent use. A single shard is a
// single-writer state machine guarded by its mutex, and its counters are the
// only ones a request writes: Stats and the metrics registry are sums over
// the shards taken when somebody reads. What crosses shards is the optional
// Observer (serialized).
//
// Entries may carry a TTL. Expiry is lazy: an expired entry is collected by
// whichever operation next touches it (and counts as a miss), never by a
// background sweeper. Every operation classifies an entry as live or dead
// against at most one clock read, taken under the shard lock on first
// need — when the operation meets an entry that carries a deadline, or has a
// TTL to turn into one — so a key read exactly at its deadline is
// deterministically one or the other, never double-counted in the hit/miss
// statistics, and an operation that meets no deadline reads no clock. An
// insert that already holds its instant also collects a dead entry it finds
// in the set it fills (the home set, or the giver a spill lands in): the
// dead way is reused before a live entry is evicted, and leaves no shadow
// signature. The cache starts no goroutines, ever.
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

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/hashfn"
	"repro/internal/obs"
	"repro/internal/sim"
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
	// eviction pool and one demand monitor. Default: 16, the paper's
	// associativity: a set's shadow directory holds as many signatures as
	// the set has ways, so halving the ways halves the victim history SC_S
	// and SC_T are driven by. On lib-mixed's key stream (one goroutine,
	// 8192 entries, seed 11) STEM/LRU misses read 0.763 at 16 ways against
	// 0.789 at 8; 32 ways read 0.778 and cost a fifth of the throughput.
	Ways int
	// DefaultTTL is applied by Set; zero means entries never expire.
	// SetWithTTL overrides it per entry.
	DefaultTTL time.Duration
	// Clock is what TTL deadlines are measured against; it never decides
	// eviction order, so Stats stay seed-deterministic. Default clock.Real.
	Clock clock.Clock
	// Seed drives every probabilistic device (BIP insertion, the 1/2^n
	// spatial decrement) and the default key hash mixing. Runs with equal
	// seeds and equal single-goroutine op sequences are identical.
	Seed uint64

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
// rejected are values that would make the bit-slicing scheme nonsensical:
// negative sizes, more ways than a recency link can index, or a negative
// TTL.
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
		c.Ways = 16
	}
	if c.Clock == nil {
		c.Clock = clock.Real
	}
}

// engine is the cache's engine Config. Its STEM parameters are zero, which
// selects the paper's Table 3 values (core.Config documents them). A STEM
// cache sets core.Config.BIPReceive: a spilled
// entry is ranked as BIP ranks a fill, not at the giver's MRU end as the
// paper's §4.6 does (see the package doc and DESIGN.md §4.3).
func (c Config) engine() core.Config {
	return core.Config{
		Seed: c.Seed, DisableCoupling: c.plainLRU, DisableSwap: c.plainLRU,
		BIPReceive: !c.plainLRU,
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

	// obsMu serializes Observer calls across shards.
	//lint:rank 2
	obsMu    sync.Mutex
	observer obs.Observer

	//lint:rank 0
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
	return New[K, V](cfg.ShardedLRU())
}

// ShardedLRU returns c with both STEM mechanisms forced off: New builds from
// it the cache NewShardedLRU builds from c.
func (c Config) ShardedLRU() Config {
	c.plainLRU = true
	return c
}

func newCache[K comparable, V any](cfg Config, hasher func(K) uint64) *Cache[K, V] {
	perShard := (cfg.Capacity + cfg.Shards - 1) / cfg.Shards
	sets := nextPow2((perShard + cfg.Ways - 1) / cfg.Ways)
	c := &Cache[K, V]{
		cfg:       cfg,
		hasher:    hasher,
		shards:    newShards[K, V](cfg.Shards),
		shardBits: uint(log2(cfg.Shards)),
		setBits:   uint(log2(sets)),
		sets:      sets,
		sig:       core.NewSigHash(cfg.engine()),
		observer:  cfg.Observer,
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.eng = core.NewEngine(cfg.engine(), sets, cfg.Ways, i)
		if c.observer != nil {
			sh.eng.SetObserver(obs.ObserverFunc(c.emit))
		}
		sh.entries = make([]entry[K, V], sets*cfg.Ways)
		sh.tags = make([]uint64, sets*cfg.Ways)
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
	h := c.hasher(key)
	sh := c.shardOf(h)

	sh.mu.Lock()
	defer sh.mu.Unlock()
	// The clock is read under the lock, at most once and on first need: the
	// one instant decides residency and expiry together, so operations
	// serialized by the shard lock agree on an entry's state at its exact
	// deadline.
	var clk opClock
	if e := c.read(sh, key, h, &clk); e != nil {
		return e.val, true
	}
	var zero V
	return zero, false
}

// Set stores value under key with the cache's DefaultTTL, inserting or
// overwriting. On insert into a full set the STEM engine picks the victim:
// it is spilled to the set's coupled giver, at BIP rank, when the spatial
// state allows, and otherwise evicted with its signature recorded in the
// set's shadow directory.
func (c *Cache[K, V]) Set(key K, value V) {
	c.SetWithTTL(key, value, c.cfg.DefaultTTL)
}

// SetWithTTL is Set with an explicit time-to-live for this entry; ttl <= 0
// means the entry never expires.
func (c *Cache[K, V]) SetWithTTL(key K, value V, ttl time.Duration) {
	h := c.hasher(key)
	sh := c.shardOf(h)

	sh.mu.Lock()
	defer sh.mu.Unlock()
	var clk opClock
	sh.eng.Tick()
	c.store(sh, key, value, h, &clk, c.after(&clk, ttl))
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
	h := c.hasher(key)
	sh := c.shardOf(h)

	sh.mu.Lock()
	defer sh.mu.Unlock()
	var clk opClock
	if e := c.read(sh, key, h, &clk); e != nil {
		return e.val, true
	}
	// Absent: the offered value wins, through the same write path a Set
	// after the missed Get would take.
	c.store(sh, key, value, h, &clk, c.after(&clk, ttl))
	return value, false
}

// Delete removes key and reports whether it was resident (an already-expired
// entry counts as absent). Deletion is not demand evidence: the key's
// signature is not entered into the shadow directory.
func (c *Cache[K, V]) Delete(key K) bool {
	h := c.hasher(key)
	sh := c.shardOf(h)

	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.eng.Tick()
	var clk opClock
	set, w := c.lookup(sh, c.setOf(h), key, h, &clk)
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
	nowN := c.cfg.Clock.Now()
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
	for i, tag := range sh.tags {
		if e := &sh.entries[i]; tag != 0 && e.exp != 0 && nowN > e.exp {
			c.expire(sh, i/c.cfg.Ways, i%c.cfg.Ways)
		}
	}
}

// AppendKeys appends every resident, unexpired key to dst and returns the
// extended slice — the enumeration the cluster tier's slot handoff uses to
// find the keys that must migrate with a virtual-node slot. Cooperatively
// cached entries are included (they are resident keys like any other).
// Shards are locked one at a time, so under concurrent writers the listing
// is consistent per shard, not globally; expired entries are skipped but
// not collected (enumeration must not perturb eviction state).
func (c *Cache[K, V]) AppendKeys(dst []K) []K {
	nowN := c.cfg.Clock.Now()
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for w, tag := range sh.tags {
			if e := &sh.entries[w]; tag != 0 && (e.exp == 0 || nowN <= e.exp) {
				dst = append(dst, e.key)
			}
		}
		sh.mu.Unlock()
	}
	return dst
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
		st := sh.snapshot()
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
		clear(sh.entries)
		clear(sh.tags)
		sh.eng.Clear()
		sh.live = 0
		sh.mu.Unlock()
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
