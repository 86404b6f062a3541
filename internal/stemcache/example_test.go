package stemcache_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

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

// Read-through loading: on a miss, GetOrLoad consults the origin exactly
// once per key however many goroutines ask concurrently (singleflight), and
// every caller shares the answer.
func ExampleCache_GetOrLoad() {
	c, _ := stemcache.New[string, string](stemcache.Config{Capacity: 1024, Seed: 1})
	defer c.Close()

	var originCalls atomic.Int32
	origin := func(ctx context.Context, key string) (string, error) {
		originCalls.Add(1)
		return "value-for-" + key, nil
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.GetOrLoad(context.Background(), "user:42", origin); err != nil {
				panic(err)
			}
		}()
	}
	wg.Wait()

	v, _ := c.GetOrLoad(context.Background(), "user:42", origin)
	fmt.Printf("%s after %d origin call(s)\n", v, originCalls.Load())
	// Output:
	// value-for-user:42 after 1 origin call(s)
}

// Stale-while-revalidate: past its freshness TTL a key is served from the
// stale value immediately — the origin's latency leaves the read path —
// while one background worker revalidates.
func ExampleCache_GetOrLoad_staleWhileRevalidate() {
	c, _ := stemcache.New[string, string](stemcache.Config{
		Capacity: 1024,
		Seed:     1,
		LoadTTL:  10 * time.Millisecond, // fresh for 10ms...
		StaleTTL: time.Minute,           // ...then stale-but-servable
	})
	defer c.Close()

	var version atomic.Int32
	origin := func(ctx context.Context, key string) (string, error) {
		return fmt.Sprintf("v%d", version.Add(1)), nil
	}

	v, _ := c.GetOrLoad(context.Background(), "feed", origin)
	fmt.Println("cold load:", v)

	time.Sleep(30 * time.Millisecond) // cross the freshness deadline
	v, _ = c.GetOrLoad(context.Background(), "feed", origin)
	fmt.Println("stale read:", v) // served instantly; refresh runs behind

	for { // the background revalidation lands shortly after
		if v, _ = c.GetOrLoad(context.Background(), "feed", origin); v != "v1" {
			break
		}
		time.Sleep(time.Millisecond)
	}
	fmt.Println("after revalidate:", v)
	// Output:
	// cold load: v1
	// stale read: v1
	// after revalidate: v2
}
