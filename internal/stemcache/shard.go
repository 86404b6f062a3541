package stemcache

import (
	"math"
	"sync"
	"time"
	"unsafe"

	"repro/internal/core"
)

// entry is one resident key-value pair. Whether a way holds one, and whether
// it is cooperatively cached, is its tag's business (see tagOf): an entry
// is read only after its tag matched.
type entry[K comparable, V any] struct {
	key  K
	val  V
	hash uint64
	exp  int64 // deadline on Config.Clock; 0 = never
}

// A tag is one way's probe word: the entry's key hash with its low two bits
// replaced by tagValid and tagCC, or 0 for an empty way. The cc
// ("cooperatively cached") bit, the software form of the paper's CC bit,
// marks an entry a giver set holds for its coupled taker. A shard's tags are
// set-major, so a 16-way set's are two 64-byte lines (an 8-way set's, one):
// a probe compares tags and reads an entry only where one matched.
const (
	tagValid = 1
	tagCC    = 2
)

// tagOf is the tag of an entry whose key hashed to h.
func tagOf(h uint64, cc bool) uint64 {
	t := h&^(tagValid|tagCC) | tagValid
	if cc {
		t |= tagCC
	}
	return t
}

// tally is a shard's Get accounting.
type tally struct {
	gets, hits, misses uint64
}

// shard is one lock-striped slice of the cache: its own mutex, STEM engine
// (per-set policies and demand monitors, giver heap, RNG, mechanism counters)
// and the entries the engine's decisions move around. All fields are guarded
// by mu, and the counters among them are the only ones a request writes:
// every other view (Stats, the metrics registry) is summed from them when
// somebody reads.
//
// The layout is by cache line (TestShardLayout holds it). The first 64 bytes
// hold what a Get hit writes outside its set — mu, the tally row and the
// engine's rng and tick — and live, which inserts and evictions move.
// The engine's read-only fields and its counters follow, then stats, then
// the slice headers; the padding makes a shard a whole number of lines, so
// no two shards share one.
type shard[K comparable, V any] struct {
	//lint:rank 1
	mu      sync.Mutex
	live    int
	one     tally // the Get accounting
	eng     core.Engine
	stats   Stats         // every other counter; snapshot completes it from one and the engine
	entries []entry[K, V] // sets × Ways, set-major
	tags    []uint64      // one per entry, in the same order; see tagOf
	_       [32]byte
}

// newShards allocates n shards with shard 0 on a 64-byte line. Go's
// allocator puts an 8-byte header in front of an object of 512 B to 32 KiB
// that holds pointers, which would shift every shard off its lines; an
// object larger than 32 KiB starts its own pages, header-free, so the array
// is allocated at least that large.
func newShards[K comparable, V any](n int) []shard[K, V] {
	const large = 32<<10 + 1
	size := int(unsafe.Sizeof(shard[K, V]{}))
	return make([]shard[K, V], max(n, (large+size-1)/size))[:n:n]
}

// set returns the ways of sh's set idx.
func (c *Cache[K, V]) set(sh *shard[K, V], idx int) []entry[K, V] {
	return sh.entries[idx*c.cfg.Ways:][:c.cfg.Ways]
}

// tags returns the tags of sh's set idx.
func (c *Cache[K, V]) tags(sh *shard[K, V], idx int) []uint64 {
	return sh.tags[idx*c.cfg.Ways:][:c.cfg.Ways]
}

// opClock is one operation's TTL clock: Config.Clock is read at most once, under the
// shard lock, the first time the operation meets a deadline — a matching
// entry's exp, or a ttl to add to now. An operation that meets none reads no
// clock; one that does classifies live and dead against that single
// instant. The zero value is ready; read is a flag, not a zero
// sentinel, because a fake clock may well say 0.
type opClock struct {
	t    int64
	read bool
}

// at returns the operation's instant, reading the clock on first need.
func (c *Cache[K, V]) at(k *opClock) int64 {
	if !k.read {
		k.t, k.read = c.cfg.Clock.Now(), true
	}
	return k.t
}

// after returns the deadline ttl past the operation's instant, saturated at
// math.MaxInt64 so a huge ttl cannot wrap to a deadline already past; ttl <= 0
// means never (0) and reads no clock.
func (c *Cache[K, V]) after(k *opClock, ttl time.Duration) int64 {
	if ttl <= 0 {
		return 0
	}
	at := c.at(k)
	if d := at + int64(ttl); d >= at {
		return d
	}
	return math.MaxInt64
}

// find returns the way of set idx holding key — as a local entry, or with cc
// as a cooperatively cached one — or -1. A matching entry that has expired
// is collected on the spot and reported as absent (lazy expiry). Death is
// decided by the operation's one instant (clk), so a key read exactly at its
// deadline classifies the same way for every operation serialized at that
// instant; an entry without a deadline reads no clock.
func (c *Cache[K, V]) find(sh *shard[K, V], idx int, cc bool, key K, h uint64, clk *opClock) int {
	want := tagOf(h, cc)
	for w, tag := range c.tags(sh, idx) {
		if tag != want {
			continue
		}
		if e := &sh.entries[idx*c.cfg.Ways+w]; e.hash == h && e.key == key {
			if e.exp != 0 && c.at(clk) > e.exp {
				c.expire(sh, idx, w)
				return -1
			}
			return w
		}
	}
	return -1
}

// lookup finds key's resident entry: in its home set idx, or — when idx is a
// coupled taker — cooperatively cached in the giver (the secondary probe).
// set is where the entry sits; way is -1 when the key is absent.
func (c *Cache[K, V]) lookup(sh *shard[K, V], idx int, key K, h uint64, clk *opClock) (set, way int) {
	if way = c.find(sh, idx, false, key, h, clk); way >= 0 {
		return idx, way
	}
	if g := sh.eng.GiverOf(idx); g >= 0 {
		if way = c.find(sh, g, true, key, h, clk); way >= 0 {
			return g, way
		}
	}
	return idx, -1
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
// it counts the Get and finds the entry, nil on a miss. A miss is
// shadow-directory demand evidence; a hit touches the entry.
func (c *Cache[K, V]) read(sh *shard[K, V], key K, h uint64, clk *opClock) *entry[K, V] {
	sh.eng.Tick()
	t := &sh.one
	t.gets++

	idx := c.setOf(h)
	set, w := c.lookup(sh, idx, key, h, clk)
	if w < 0 {
		t.misses++
		sh.eng.Miss(idx, c.sigOf(h))
		return nil
	}
	t.hits++
	if set != idx {
		sh.stats.SecondaryHits++
	}
	c.touch(sh, idx, set, w)
	return &c.set(sh, set)[w]
}

// store is the shared write path (caller holds sh.mu and has ticked the
// engine): overwrite a resident entry — local or cooperative — or run the
// miss path and insert.
func (c *Cache[K, V]) store(sh *shard[K, V], key K, value V, h uint64, clk *opClock, exp int64) {
	sh.stats.Puts++
	idx := c.setOf(h)
	if set, w := c.lookup(sh, idx, key, h, clk); w >= 0 {
		e := &c.set(sh, set)[w]
		e.val, e.exp = value, exp
		// An overwrite touches a resident entry, though it is not a Get hit
		// for Stats.
		c.touch(sh, idx, set, w)
		return
	}
	// Miss: consult the shadow directory, then fill locally (the library
	// analogue of the simulator's miss path).
	sh.eng.Miss(idx, c.sigOf(h))
	c.insert(sh, idx, entry[K, V]{key: key, val: value, hash: h, exp: exp}, clk)
}

// room returns a way of set idx to fill without evicting anything live: the
// first empty way, else — only when the operation already holds its instant —
// the first way whose entry is past it, collected as an expiry (a dead entry
// is no capacity evidence, so no shadow signature is recorded). -1 means
// every way holds a live entry, or the operation has no instant and reads no
// clock to find out.
func (c *Cache[K, V]) room(sh *shard[K, V], idx int, clk *opClock) int {
	for w, tag := range c.tags(sh, idx) {
		if tag == 0 {
			return w
		}
	}
	if !clk.read {
		return -1
	}
	s := c.set(sh, idx)
	for w := range s {
		if e := s[w].exp; e != 0 && clk.t > e {
			c.expire(sh, idx, w)
			return w
		}
	}
	return -1
}

// insert puts ent into set idx — the one place an entry enters the cache. An
// empty or expired way is used when the set has one (see room); only a set
// full of live entries asks the engine for a victim.
func (c *Cache[K, V]) insert(sh *shard[K, V], idx int, ent entry[K, V], clk *opClock) {
	t := c.tags(sh, idx)
	way := c.room(sh, idx, clk)
	if way < 0 {
		way = sh.eng.Victim(idx)
		c.vacate(sh, idx, way, clk)
	}
	c.set(sh, idx)[way], t[way] = ent, tagOf(ent.hash, false)
	sh.eng.Fill(idx, way)
	sh.live++
}

// vacate moves the entry in (idx, w) where the engine sends it: into the
// coupled giver as a cooperatively cached entry, or out of the cache. Either
// way the caller refills (idx, w) at once, so its tag is left for the caller
// to overwrite. A spill lands in the giver's room (an expired way there is
// reused after Evict has counted the spill in, so the pair cannot dissolve
// mid-placement), else displaces the giver's victim.
func (c *Cache[K, V]) vacate(sh *shard[K, V], idx, w int, clk *opClock) {
	v := &c.set(sh, idx)[w]
	g := sh.eng.Evict(idx, c.sigOf(v.hash), c.tags(sh, idx)[w]&tagCC != 0)
	if g < 0 {
		sh.live--
		sh.stats.Evictions++
		return
	}
	gs, gt := c.set(sh, g), c.tags(sh, g)
	gw := c.room(sh, g, clk)
	if gw < 0 {
		gw = sh.eng.Victim(g)
		c.vacate(sh, g, gw, clk)
	}
	gs[gw], gt[gw] = *v, tagOf(v.hash, true)
	sh.eng.FillSpill(g, gw)
}

// drop removes the entry at (idx, w) outside the eviction path — a delete or
// an expiry; dropping a giver's last cooperatively cached entry dissolves
// the association.
func (c *Cache[K, V]) drop(sh *shard[K, V], idx, w int) {
	e, t := &c.set(sh, idx)[w], &c.tags(sh, idx)[w]
	cc := *t&tagCC != 0
	*e, *t = entry[K, V]{}, 0
	sh.eng.Remove(idx, w, cc)
	sh.live--
}

// expire collects the expired entry at (idx, w).
func (c *Cache[K, V]) expire(sh *shard[K, V], idx, w int) {
	c.drop(sh, idx, w)
	sh.stats.Expirations++
}

// snapshot returns sh's counters completed with the Get accounting and with
// what the engine keeps: the mechanism counters and the instantaneous
// set-role gauges (caller holds sh.mu).
func (sh *shard[K, V]) snapshot() Stats {
	st, n, cen := sh.stats, sh.eng.Counts(), sh.eng.Census()
	st.Gets, st.Hits, st.Misses = sh.one.gets, sh.one.hits, sh.one.misses
	st.ShadowHits, st.PolicySwaps = n.ShadowHits, n.PolicySwaps
	st.Couplings, st.Decouplings = n.Couplings, n.Decouplings
	st.Spills, st.Receives = n.Spills, n.Receives
	st.TakerSets, st.GiverSets = uint64(cen.TakerClass), uint64(cen.GiverClass)
	st.CoupledSets = uint64(cen.Takers + cen.Givers)
	return st
}
