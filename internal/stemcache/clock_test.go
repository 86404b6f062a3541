package stemcache

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/clock"
)

// countClock is a manual clock that counts its reads.
type countClock struct {
	clock.Manual
	reads int
}

func (k *countClock) Now() int64 { k.reads++; return k.Manual.Now() }

// clockCache builds a 1-shard, 4-way, identity-hashed cache on a counting
// manual clock: key k lives in set k % sets, so the cases below place
// entries exactly.
func clockCache(clk *countClock) *Cache[int, int] {
	return mustWithHasher[int, int](Config{Capacity: 64, Shards: 1, Ways: 4, Seed: 1, Clock: clk}, identity)
}

// TestClockReadsPerOperation is the count gate for the lazy TTL clock: an
// operation reads Config.Clock only when it meets a deadline — a matching entry's
// exp, or a ttl to add to now — and then exactly once, so the read's
// and the store's classification share one instant. Whole-cache walks (Len,
// AppendKeys) read once per call; Stats, which STATS and every gauge
// reader call, never looks at a deadline.
func TestClockReadsPerOperation(t *testing.T) {
	const (
		plain  = 1 // resident, no deadline
		ttl    = 2 // resident, exp set
		absent = 5
	)
	cases := []struct {
		name string
		op   func(c *Cache[int, int])
		want int
	}{
		{"Get hit", func(c *Cache[int, int]) { c.Get(plain) }, 0},
		{"Get miss", func(c *Cache[int, int]) { c.Get(absent) }, 0},
		{"Set insert", func(c *Cache[int, int]) { c.Set(absent, 1) }, 0},
		{"Set overwrite", func(c *Cache[int, int]) { c.Set(plain, 2) }, 0},
		{"Delete hit", func(c *Cache[int, int]) { c.Delete(plain) }, 0},
		{"Delete miss", func(c *Cache[int, int]) { c.Delete(absent) }, 0},
		{"GetOrSet hit", func(c *Cache[int, int]) { c.GetOrSet(plain, 2) }, 0},
		{"GetOrSet miss", func(c *Cache[int, int]) { c.GetOrSet(absent, 2) }, 0},

		{"SetWithTTL insert", func(c *Cache[int, int]) { c.SetWithTTL(absent, 1, time.Second) }, 1},
		{"SetWithTTL over a TTL'd entry", func(c *Cache[int, int]) { c.SetWithTTL(ttl, 1, time.Second) }, 1},
		{"GetOrSetWithTTL miss", func(c *Cache[int, int]) { c.GetOrSetWithTTL(absent, 1, time.Second) }, 1},
		{"GetOrSetWithTTL hit on a TTL'd entry", func(c *Cache[int, int]) { c.GetOrSetWithTTL(ttl, 1, time.Second) }, 1},

		{"Get of a TTL'd entry", func(c *Cache[int, int]) { c.Get(ttl) }, 1},
		{"Delete of a TTL'd entry", func(c *Cache[int, int]) { c.Delete(ttl) }, 1},
		{"Set over a TTL'd entry", func(c *Cache[int, int]) { c.Set(ttl, 1) }, 1},

		{"Len", func(c *Cache[int, int]) { c.Len() }, 1},
		{"AppendKeys", func(c *Cache[int, int]) { c.AppendKeys(nil) }, 1},
		{"Stats", func(c *Cache[int, int]) { c.Stats() }, 0},
	}
	// Both instants matter: at 0 a zero-sentinel "have I read yet?" reads
	// again for every deadline the operation meets.
	for _, now := range []int64{0, 1_700_000_000_000_000_000} {
		for _, tc := range cases {
			clk := &countClock{}
			clk.Advance(time.Duration(now))
			c := clockCache(clk)
			c.Set(plain, 1)
			c.SetWithTTL(ttl, 1, time.Second)
			clk.reads = 0
			tc.op(c)
			if clk.reads != tc.want {
				t.Errorf("now=%d %s: %d clock reads, want %d", now, tc.name, clk.reads, tc.want)
			}
		}
	}
}

// TestClockNotReadForOtherKeysDeadlines: only a matching entry's deadline is
// a reason to read the clock — a miss, an insert and the eviction it forces in
// a set full of TTL'd entries under other keys read nothing.
func TestClockNotReadForOtherKeysDeadlines(t *testing.T) {
	clk := &countClock{}
	c := clockCache(clk)
	for w := 0; w < 4; w++ {
		c.SetWithTTL(w*c.sets, w, time.Second) // all in set 0
	}
	clk.reads = 0
	if _, ok := c.Get(4 * c.sets); ok {
		t.Fatal("absent key found")
	}
	c.Set(5*c.sets, 5) // full set: evicts a TTL'd entry
	c.Delete(6 * c.sets)
	if clk.reads != 0 {
		t.Fatalf("%d clock reads for keys that match no entry, want 0", clk.reads)
	}
	if st := c.Stats(); st.Evictions != 1 || st.Expirations != 0 {
		t.Fatalf("Evictions=%d Expirations=%d, want 1 and 0", st.Evictions, st.Expirations)
	}
}

// TestInsertReclaimsDeadWay: an insert that already holds its instant takes
// a way whose entry is past it before evicting a live entry — collected as an
// expiry, with no shadow signature — in the home set and in the giver a spill
// lands in. TestClockNotReadForOtherKeysDeadlines is the other half: without
// an instant the insert reads no clock for this and evicts.
func TestInsertReclaimsDeadWay(t *testing.T) {
	// home fills set 0 with one key TTL'd and dead at the insert's instant,
	// then inserts a new key with a TTL: one clock read, one expiration, no
	// eviction, the new key in the dead key's way, every live resident kept.
	home := func(t *testing.T, c *Cache[int, int], clk *countClock) {
		s := c.sets
		c.Set(0, 0)
		c.SetWithTTL(s, 1, time.Second)
		c.SetWithTTL(2*s, 2, time.Hour)
		c.Set(3*s, 3)
		clk.Advance(2 * time.Second)
		sh := &c.shards[0]
		dead := -1
		for w, e := range c.set(sh, 0) {
			if e.key == s {
				dead = w
			}
		}
		before := c.Stats()
		clk.reads = 0
		c.SetWithTTL(4*s, 4, time.Second)
		if clk.reads != 1 {
			t.Errorf("%d clock reads, want 1", clk.reads)
		}
		st := c.Stats()
		if st.Expirations != before.Expirations+1 || st.Evictions != before.Evictions {
			t.Errorf("Expirations %d->%d, Evictions %d->%d; want +1 and +0",
				before.Expirations, st.Expirations, before.Evictions, st.Evictions)
		}
		if got := c.set(sh, 0)[dead].key; got != 4*s {
			t.Errorf("way %d holds key %d, want the new key %d", dead, got, 4*s)
		}
		for _, k := range []int{0, 2 * s, 3 * s, 4 * s} {
			if _, ok := c.Get(k); !ok {
				t.Errorf("live key %d evicted", k)
			}
		}
	}

	t.Run("home set", func(t *testing.T) {
		clk := &countClock{}
		home(t, clockCache(clk), clk)
	})

	t.Run("NewShardedLRU", func(t *testing.T) {
		clk := &countClock{}
		c := mustLRU[int, int](Config{Capacity: 64, Shards: 1, Ways: 4, Seed: 1, Clock: clk})
		c.hasher = identity // still empty: place keys as clockCache does
		home(t, c, clk)
	})

	t.Run("giver set", func(t *testing.T) {
		var clk clock.Manual
		c := coupledCache(t, &clk)
		sh, s := &c.shards[0], c.sets
		spilled := spillOne(t, c, 0)
		c.SetWithTTL(spilled, 0, time.Second) // the cc entry now carries a deadline
		for _, k := range []int{2, 2 + s, 2 + 2*s} {
			c.Set(k, k) // giver set 2: full, one dead-to-be cc entry
		}
		clk.Advance(2 * time.Second)
		sh.eng.Monitor(0).ScS = sh.eng.Geom().Max
		before := c.Stats()
		c.SetWithTTL(5*s, 5, time.Second) // set 0 is full of live entries: a spill
		st := c.Stats()
		if st.Spills != before.Spills+1 || st.Expirations != before.Expirations+1 ||
			st.Evictions != before.Evictions || st.Decouplings != before.Decouplings {
			t.Errorf("Spills %d->%d, Expirations %d->%d, Evictions %d->%d, Decouplings %d->%d; want +1, +1, +0, +0",
				before.Spills, st.Spills, before.Expirations, st.Expirations,
				before.Evictions, st.Evictions, before.Decouplings, st.Decouplings)
		}
		if sh.eng.Role(0) != "taker" || sh.eng.Partner(0) != 2 {
			t.Errorf("set 0 is %s with partner %d, want still coupled to giver 2", sh.eng.Role(0), sh.eng.Partner(0))
		}
		cc := 0
		for w, tag := range c.tags(sh, 2) {
			if tag&tagCC != 0 {
				cc++
				if k := c.set(sh, 2)[w].key; k == spilled {
					t.Errorf("dead cc key %d still in the giver", k)
				}
			}
		}
		if cc != 1 {
			t.Errorf("giver holds %d cc entries, want 1 (the new spill in the dead one's way)", cc)
		}
		for _, k := range []int{2, 2 + s, 2 + 2*s} {
			if _, ok := c.Get(k); !ok {
				t.Errorf("giver's live key %d evicted", k)
			}
		}
	})
}

// TestHugeTTLNeverExpires: a TTL so large that instant + ttl overflows int64
// stores a deadline saturated at math.MaxInt64, not a wrapped one already in
// the past — through SetWithTTL and through Set under such a DefaultTTL.
func TestHugeTTLNeverExpires(t *testing.T) {
	const huge = time.Duration(math.MaxInt64)
	clk := &countClock{}
	clk.Advance(1_700_000_000_000_000_000)
	c := clockCache(clk)
	c.SetWithTTL(1, 1, huge)
	d := mustWithHasher[int, int](Config{Capacity: 64, Shards: 1, Ways: 4, Seed: 1, DefaultTTL: huge, Clock: clk}, identity)
	d.Set(1, 1)
	clk.Advance(time.Hour)
	for _, tc := range []struct {
		name string
		c    *Cache[int, int]
	}{{"SetWithTTL", c}, {"Set under DefaultTTL", d}} {
		if _, ok := tc.c.Get(1); !ok {
			t.Errorf("%s with ttl MaxInt64: Get missed", tc.name)
		}
		if st := tc.c.Stats(); st.Expirations != 0 {
			t.Errorf("%s with ttl MaxInt64: Expirations=%d, want 0", tc.name, st.Expirations)
		}
	}
}

// mixedOps drives every operation class — plain, TTL'd, deleted — through c
// on a clock that advances one millisecond per operation, so entries expire
// along the way.
func mixedOps(c *Cache[int, int], clk *clock.Manual, n int) {
	for i := 0; i < n; i++ {
		if i > 0 {
			clk.Advance(time.Millisecond)
		}
		k := (i * 7) % 3000
		switch i % 8 {
		case 0, 1, 2:
			if _, ok := c.Get(k); !ok {
				c.Set(k, i)
			}
		case 3:
			c.SetWithTTL(k, i, 40*time.Millisecond)
		case 4:
			c.GetOrSetWithTTL(k, i, 25*time.Millisecond)
		case 5: // a small hot range, so TTL'd entries are met live and dead
			if _, ok := c.Get(k % 64); !ok {
				c.SetWithTTL(k%64, i, 300*time.Millisecond)
			}
		case 6:
			c.Delete((i * 13) % 3000)
		case 7:
			c.GetOrSet(k, i)
		}
	}
}

// TestPinnedStats pins the full Stats of a fixed-seed single-goroutine run
// over every operation class: reading the clock later, or not at all, must
// change no classification, hence no counter.
func TestPinnedStats(t *testing.T) {
	var clk clock.Manual
	c := mustNew[int, int](Config{Capacity: 1024, Shards: 4, Ways: 4, Seed: 42, Clock: &clk})
	defer c.Close()
	mixedOps(c, &clk, 60_000)
	got := fmt.Sprintf("%+v len=%d", c.Stats(), c.Len())
	const want = "{Gets:45000 Hits:15862 Misses:29138 Puts:36638 Deletes:3090 Evictions:21911 Expirations:10638 " +
		"SecondaryHits:291 ShadowHits:11977 PolicySwaps:345 Couplings:1038 Decouplings:1009 Spills:3547 Receives:3547 " +
		"TakerSets:135 GiverSets:22 CoupledSets:58} len=842"
	if got != want {
		t.Fatalf("Stats moved:\n got %s\nwant %s", got, want)
	}
}

// TestNoGoroutines pins the package comment's promise: a cache starts no
// goroutines — not in New, not in any operation, not in Close.
func TestNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	var clk clock.Manual
	c := mustNew[int, int](Config{Capacity: 1024, Shards: 4, Ways: 4, Seed: 42, Clock: &clk})
	mixedOps(c, &clk, 10_000)
	during := runtime.NumGoroutine()
	c.Close()
	if after := runtime.NumGoroutine(); during > before || after > before {
		t.Fatalf("goroutines: %d before New, %d after 10k ops, %d after Close", before, during, after)
	}
}

// BenchmarkGetHit measures a warm single-goroutine Get hit, on entries
// without a deadline (no clock read) and on entries that carry a TTL (one).
func BenchmarkGetHit(b *testing.B) {
	for _, ttl := range []time.Duration{0, time.Hour} {
		name := "no-ttl"
		if ttl > 0 {
			name = "ttl"
		}
		b.Run(name, func(b *testing.B) {
			c := mustNew[string, []byte](Config{Capacity: 1 << 15, Shards: 16, Ways: 8, Seed: 42})
			keys := make([]string, 1<<10)
			val := make([]byte, 128)
			for i := range keys {
				keys[i] = fmt.Sprintf("bench:key:%04d", i)
				c.SetWithTTL(keys[i], val, ttl)
			}
			hits := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := c.Get(keys[i&(len(keys)-1)]); ok {
					hits++
				}
			}
			if hits != b.N {
				b.Fatalf("%d of %d Gets hit", hits, b.N)
			}
		})
	}
}
