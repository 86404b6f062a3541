package stemcache

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// clockCache builds a 1-shard, 4-way, identity-hashed cache with every TTL
// knob on and a counting fake clock: key k lives in set k % sets, so the
// cases below place entries exactly. reads counts c.now calls.
func clockCache(clock *int64, reads *int) *Cache[int, int] {
	c := mustWithHasher[int, int](Config{
		Capacity: 64, Shards: 1, Ways: 4, Seed: 1,
		LoadTTL: time.Second, StaleTTL: time.Second, NegativeTTL: time.Second,
	}, identity)
	c.now = func() int64 { *reads++; return *clock }
	return c
}

// TestClockReadsPerOperation is the count gate for the lazy TTL clock: an
// operation reads c.now only when it meets a deadline — a matching entry's
// exp or fresh, or a ttl to add to now — and then exactly once, so the read's
// and the store's classification share one instant. Whole-cache walks (Len,
// AppendKeys) read once per call; Demand never looks at a deadline.
func TestClockReadsPerOperation(t *testing.T) {
	const (
		plain  = 1 // resident, no deadline
		ttl    = 2 // resident, exp set
		loaded = 3 // resident, exp and fresh set
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
		{"LookupLoad of a plain entry", func(c *Cache[int, int]) { c.LookupLoad(plain) }, 0},

		{"SetWithTTL insert", func(c *Cache[int, int]) { c.SetWithTTL(absent, 1, time.Second) }, 1},
		{"SetWithTTL over a TTL'd entry", func(c *Cache[int, int]) { c.SetWithTTL(ttl, 1, time.Second) }, 1},
		{"GetOrSetWithTTL miss", func(c *Cache[int, int]) { c.GetOrSetWithTTL(absent, 1, time.Second) }, 1},
		{"GetOrSetWithTTL hit on a TTL'd entry", func(c *Cache[int, int]) { c.GetOrSetWithTTL(ttl, 1, time.Second) }, 1},
		{"SetLoaded", func(c *Cache[int, int]) { c.SetLoaded(absent, 1) }, 1},
		{"SetLoaded over a loaded entry", func(c *Cache[int, int]) { c.SetLoaded(loaded, 1) }, 1},
		{"SetNegative", func(c *Cache[int, int]) { c.SetNegative(absent) }, 1},

		{"Get of a TTL'd entry", func(c *Cache[int, int]) { c.Get(ttl) }, 1},
		{"Get of a loaded entry", func(c *Cache[int, int]) { c.Get(loaded) }, 1},
		{"LookupLoad of a loaded entry", func(c *Cache[int, int]) { c.LookupLoad(loaded) }, 1},
		{"Delete of a TTL'd entry", func(c *Cache[int, int]) { c.Delete(ttl) }, 1},
		{"Set over a TTL'd entry", func(c *Cache[int, int]) { c.Set(ttl, 1) }, 1},

		{"Len", func(c *Cache[int, int]) { c.Len() }, 1},
		{"AppendKeys", func(c *Cache[int, int]) { c.AppendKeys(nil) }, 1},
		{"Demand", func(c *Cache[int, int]) { c.Demand() }, 0},
	}
	// Both instants matter: at 0 a zero-sentinel "have I read yet?" reads
	// again for every deadline the operation meets.
	for _, now := range []int64{0, 1_700_000_000_000_000_000} {
		for _, tc := range cases {
			clock, reads := now, 0
			c := clockCache(&clock, &reads)
			c.Set(plain, 1)
			c.SetWithTTL(ttl, 1, time.Second)
			c.SetLoaded(loaded, 1)
			reads = 0
			tc.op(c)
			if reads != tc.want {
				t.Errorf("now=%d %s: %d clock reads, want %d", now, tc.name, reads, tc.want)
			}
		}
	}
}

// TestClockNotReadForOtherKeysDeadlines: only a matching entry's deadline is
// a reason to read the clock — a miss, an insert and the eviction it forces in
// a set full of TTL'd entries under other keys read nothing.
func TestClockNotReadForOtherKeysDeadlines(t *testing.T) {
	var clock int64
	reads := 0
	c := clockCache(&clock, &reads)
	for w := 0; w < 4; w++ {
		c.SetWithTTL(w*c.sets, w, time.Second) // all in set 0
	}
	reads = 0
	if _, ok := c.Get(4 * c.sets); ok {
		t.Fatal("absent key found")
	}
	c.Set(5*c.sets, 5) // full set: evicts a TTL'd entry
	c.Delete(6 * c.sets)
	if reads != 0 {
		t.Fatalf("%d clock reads for keys that match no entry, want 0", reads)
	}
	if st := c.Stats(); st.Evictions != 1 || st.Expirations != 0 {
		t.Fatalf("Evictions=%d Expirations=%d, want 1 and 0", st.Evictions, st.Expirations)
	}
}

// mixedOps drives every operation class — plain, TTL'd, loaded, negative,
// deleted — through c on a clock that advances one millisecond per operation,
// so entries expire and go stale along the way.
func mixedOps(c *Cache[int, int], clock *int64, n int) {
	for i := 0; i < n; i++ {
		*clock = int64(i) * int64(time.Millisecond)
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
		case 5: // a small hot range, so loaded entries are met fresh, stale and dead
			if _, st := c.LookupLoad(k % 64); st == LoadMiss {
				if i%3 == 0 {
					c.SetNegative(k % 64)
				} else {
					c.SetLoaded(k%64, i)
				}
			}
		case 6:
			c.Delete((i * 13) % 3000)
		case 7:
			c.GetOrSet(k, i)
		}
	}
}

// TestPinnedStats pins the full Stats of a fixed-seed single-goroutine run
// over every operation class to the numbers the eager per-operation clock
// produced: reading the clock later, or not at all, must change no
// classification, hence no counter.
func TestPinnedStats(t *testing.T) {
	var clock int64
	c := mustNew[int, int](Config{
		Capacity: 1024, Shards: 4, Ways: 4, Seed: 42,
		LoadTTL: 300 * time.Millisecond, StaleTTL: 400 * time.Millisecond, NegativeTTL: 200 * time.Millisecond,
	})
	defer c.Close()
	c.now = func() int64 { return clock }
	mixedOps(c, &clock, 60_000)
	got := fmt.Sprintf("%+v len=%d", c.Stats(), c.Len())
	const want = "{Gets:45000 Hits:14664 Misses:30336 Puts:36980 Deletes:2727 Evictions:30365 Expirations:2891 " +
		"SecondaryHits:122 ShadowHits:12111 PolicySwaps:438 Couplings:194 Decouplings:178 Spills:1115 Receives:1115 " +
		"StaleServed:3460 NegativeHits:856 TakerSets:120 GiverSets:7 CoupledSets:32} len=762"
	if got != want {
		t.Fatalf("Stats moved:\n got %s\nwant %s", got, want)
	}
}

// TestNoGoroutines pins the package comment's promise: a cache starts no
// goroutines — not in New, not in any operation, not in Close — with every
// read-through knob on.
func TestNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	var clock int64
	c := mustNew[int, int](Config{
		Capacity: 1024, Shards: 4, Ways: 4, Seed: 42,
		LoadTTL: 300 * time.Millisecond, StaleTTL: 400 * time.Millisecond,
		NegativeTTL: 200 * time.Millisecond, TTLJitter: 0.2,
	})
	c.now = func() int64 { return clock }
	mixedOps(c, &clock, 10_000)
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
