package stemcache_test

import (
	"fmt"

	"repro/internal/stemcache"
)

// Quickstart for the key-value cache layer: a cache-aside Get/Set loop.
func ExampleNew() {
	c, err := stemcache.New[string, string](stemcache.Config{Capacity: 1024, Seed: 1})
	if err != nil {
		panic(err) // only an invalid Config errors; this one is static
	}
	defer c.Close()

	if _, ok := c.Get("user:42"); !ok {
		// Miss: fetch from the backing store, then cache it.
		c.Set("user:42", "Ada Lovelace")
	}
	name, ok := c.Get("user:42")
	fmt.Println(name, ok)
	// Output:
	// Ada Lovelace true
}

// Shard count and geometry are configurable: shards bound lock contention
// (and the spatial-coupling domain), ways set the per-set eviction pool.
func ExampleNew_shards() {
	c, _ := stemcache.New[int, int](stemcache.Config{
		Capacity: 10_000, // rounded up to shards × sets × ways
		Shards:   4,      // four independent mutexes
		Ways:     16,     // 16 entries share one demand monitor
		Seed:     7,
	})
	defer c.Close()
	fmt.Println(c.Shards(), c.Capacity())
	// Output:
	// 4 16384
}

// Reading Stats: drive a scan larger than the cache and watch the STEM
// engine's counters alongside the hit/miss totals.
func ExampleCache_stats() {
	c, _ := stemcache.New[int, int](stemcache.Config{Capacity: 512, Shards: 1, Seed: 3})
	defer c.Close()
	for pass := 0; pass < 40; pass++ {
		for k := 0; k < 1024; k++ { // twice the capacity: LRU alone would thrash
			if _, ok := c.Get(k); !ok {
				c.Set(k, k)
			}
		}
	}
	st := c.Stats()
	fmt.Printf("gets=%d  hitrate>0.2=%v  shadowHits>0=%v  policySwaps>0=%v\n",
		st.Gets, st.HitRate() > 0.2, st.ShadowHits > 0, st.PolicySwaps > 0)
	// Output:
	// gets=40960  hitrate>0.2=true  shadowHits>0=true  policySwaps>0=true
}
