package stemcache

// Read-through storage tests: negative caching, TTL jitter, the stale
// window, and the expiry-boundary determinism LookupLoad depends on. Who
// fetches the origin is the server's lease protocol, tested in
// internal/server. Wall time never decides an assertion — every TTL test
// injects c.now.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// loaderCfg is a small geometry with the load knobs the test wants.
func loaderCfg() Config {
	return Config{Capacity: 1 << 10, Shards: 4, Ways: 4, Seed: 7}
}

func TestNegativeCaching(t *testing.T) {
	cfg := loaderCfg()
	cfg.NegativeTTL = 100
	c := mustNew[string, string](cfg)
	defer c.Close()
	clock := int64(1000)
	c.now = func() int64 { return clock }

	c.SetNegative("ghost")
	// Within NegativeTTL the marker answers.
	clock = 1100 // marker exp is 1000+100; live exactly at its deadline
	if _, state := c.LookupLoad("ghost"); state != LoadNegative {
		t.Fatalf("state = %v; want negative (absence cached)", state)
	}
	if st := c.Stats(); st.NegativeHits != 1 {
		t.Fatalf("NegativeHits = %d; want 1", st.NegativeHits)
	}
	// Plain Get sees a miss, never a zero-value hit.
	if v, ok := c.Get("ghost"); ok {
		t.Fatalf("Get on negative marker = %q, true; want miss", v)
	}
	// Past NegativeTTL the marker expires and the key is a plain miss again.
	clock = 1101
	if _, state := c.LookupLoad("ghost"); state != LoadMiss {
		t.Fatalf("state = %v; want miss (marker expired)", state)
	}
	if st := c.Stats(); st.NegativeHits != 1 || st.Expirations != 1 {
		t.Fatalf("NegativeHits = %d, Expirations = %d; want 1, 1", st.NegativeHits, st.Expirations)
	}
}

func TestNegativeTTLZeroDisablesCaching(t *testing.T) {
	c := mustNew[string, string](loaderCfg())
	defer c.Close()
	c.SetNegative("ghost")
	if _, state := c.LookupLoad("ghost"); state != LoadMiss {
		t.Fatalf("state = %v; want miss (no negative caching configured)", state)
	}
	if st := c.Stats(); st.Puts != 0 {
		t.Fatalf("Puts = %d; want 0 (SetNegative is a no-op)", st.Puts)
	}
}

func TestTTLJitterDecorrelatesExpiry(t *testing.T) {
	cfg := loaderCfg()
	cfg.LoadTTL = 1000
	cfg.TTLJitter = 0.5
	c := mustNew[string, string](cfg)
	defer c.Close()
	clock := int64(0)
	c.now = func() int64 { return clock }

	const n = 16
	for i := 0; i < n; i++ {
		c.SetLoaded(fmt.Sprintf("k%02d", i), "v")
	}
	// At the full (unjittered) deadline every entry must already be gone…
	clock = cfg.LoadTTL.Nanoseconds() + 1
	for i := 0; i < n; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%02d", i)); ok {
			t.Fatalf("k%02d still live past the full TTL; jitter must only shorten", i)
		}
	}
	// …and the deadlines must not coincide: reload and probe at 3/4 TTL,
	// where a 0.5 jitter leaves some entries live and kills others.
	clock = 0
	for i := 0; i < n; i++ {
		c.Delete(fmt.Sprintf("k%02d", i))
		c.SetLoaded(fmt.Sprintf("k%02d", i), "v")
	}
	clock = cfg.LoadTTL.Nanoseconds()*3/4 + 1
	live := 0
	for i := 0; i < n; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%02d", i)); ok {
			live++
		}
	}
	if live == 0 || live == n {
		t.Fatalf("live at 3/4 TTL = %d of %d; jitter should spread deadlines across the window", live, n)
	}
}

// TestStaleWhileRevalidate pins the stale window: past its freshness
// deadline a loaded value keeps answering LoadStale — a hit, counted in
// StaleServed — until the refresher's SetLoaded makes it fresh again.
func TestStaleWhileRevalidate(t *testing.T) {
	cfg := loaderCfg()
	cfg.LoadTTL = 1000
	cfg.StaleTTL = 10000
	c := mustNew[string, string](cfg)
	defer c.Close()
	clock := int64(0)
	c.now = func() int64 { return clock }

	c.SetLoaded("k", "v1")
	if v, state := c.LookupLoad("k"); state != LoadHit || v != "v1" {
		t.Fatalf("fresh lookup = %q, %v; want v1, hit", v, state)
	}
	// Enter the stale window: fresh deadline passed, expiry far away.
	clock = cfg.LoadTTL.Nanoseconds() + 1
	for i := 0; i < 4; i++ {
		if v, state := c.LookupLoad("k"); state != LoadStale || v != "v1" {
			t.Fatalf("stale lookup = %q, %v; want v1, stale", v, state)
		}
	}
	st := c.Stats()
	if st.StaleServed != 4 || st.Hits != 5 || st.Misses != 0 {
		t.Fatalf("StaleServed = %d, Hits = %d, Misses = %d; want 4, 5, 0", st.StaleServed, st.Hits, st.Misses)
	}
	// The refresher's fill makes the key fresh again.
	c.SetLoaded("k", "v2")
	if v, state := c.LookupLoad("k"); state != LoadHit || v != "v2" {
		t.Fatalf("after refresh = %q, %v; want v2, hit", v, state)
	}
}

// TestExpiryBoundaryDeterministic is the TTL-expiry vs. Get regression the
// stale-while-revalidate work surfaced: with the clock read under the shard
// lock, a key read exactly at a deadline is deterministically on the live
// side of it, and crossing the deadline expires it exactly once.
func TestExpiryBoundaryDeterministic(t *testing.T) {
	cfg := loaderCfg()
	cfg.LoadTTL = 100
	cfg.StaleTTL = 50
	c := mustNew[string, string](cfg)
	defer c.Close()
	clock := int64(1000)
	c.now = func() int64 { return clock }

	c.SetWithTTL("plain", "v", 100) // exp 1100
	clock = 1100
	if _, ok := c.Get("plain"); !ok {
		t.Fatal("Get exactly at the expiry deadline must still hit")
	}
	clock = 1101
	if _, ok := c.Get("plain"); ok {
		t.Fatal("Get one past the deadline must miss")
	}
	if st := c.Stats(); st.Expirations != 1 {
		t.Fatalf("Expirations = %d; want exactly 1", st.Expirations)
	}
	if _, ok := c.Get("plain"); ok {
		t.Fatal("expired entry resurrected")
	}
	if st := c.Stats(); st.Expirations != 1 {
		t.Fatalf("Expirations after re-probe = %d; want still 1 (no double count)", st.Expirations)
	}

	// The loaded-entry boundaries: fresh until fresh, stale until exp.
	clock = 2000
	c.SetLoaded("swr", "v") // fresh 2100, exp 2150
	probe := func(want LoadState) {
		t.Helper()
		if _, state := c.LookupLoad("swr"); state != want {
			t.Fatalf("clock %d: state = %v; want %v", clock, state, want)
		}
	}
	clock = 2100
	probe(LoadHit) // exactly at the freshness deadline: still fresh
	clock = 2101
	probe(LoadStale)
	clock = 2150
	probe(LoadStale) // exactly at expiry: still (stale) resident
	clock = 2151
	probe(LoadMiss)
	st := c.Stats()
	if st.Expirations != 2 {
		t.Fatalf("Expirations = %d; want 2 (plain + swr, once each)", st.Expirations)
	}
	if st.Gets != st.Hits+st.Misses {
		t.Fatalf("Gets %d != Hits %d + Misses %d", st.Gets, st.Hits, st.Misses)
	}
}

// TestExpiryRaceStatsConsistent hammers one expiring key from many
// goroutines while the injected clock sweeps across its deadline: however
// the ops interleave, every Get is exactly one hit or one miss and the
// entry expires at most once per store.
func TestExpiryRaceStatsConsistent(t *testing.T) {
	c := mustNew[string, int](loaderCfg())
	defer c.Close()
	var clock atomic.Int64
	clock.Store(1)
	c.now = func() int64 { return clock.Load() }

	const (
		goroutines = 8
		rounds     = 200
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Get("hot")
				}
			}
		}()
	}
	stores := uint64(0)
	for r := 0; r < rounds; r++ {
		now := clock.Load()
		c.SetWithTTL("hot", r, 10)
		stores++
		clock.Store(now + 25) // sweep well past the deadline
	}
	close(stop)
	wg.Wait()
	st := c.Stats()
	if st.Gets != st.Hits+st.Misses {
		t.Fatalf("Gets %d != Hits %d + Misses %d", st.Gets, st.Hits, st.Misses)
	}
	if st.Expirations > stores {
		t.Fatalf("Expirations %d > stores %d: some entry expired twice", st.Expirations, stores)
	}
}

// TestStaleAndNegativeResidency pins how the passive surface treats loader
// state: stale values and negative markers are misses for Get, overwritten
// by Set/GetOrSet, and removed (reporting true) by Delete.
func TestStaleAndNegativeResidency(t *testing.T) {
	cfg := loaderCfg()
	cfg.LoadTTL = 100
	cfg.StaleTTL = 1000
	cfg.NegativeTTL = 1000
	c := mustNew[string, string](cfg)
	defer c.Close()
	clock := int64(0)
	c.now = func() int64 { return clock }

	c.SetLoaded("stale", "old")
	clock = 101 // past fresh (100), far from exp (1100)

	if _, ok := c.Get("stale"); ok {
		t.Fatal("plain Get must not serve a stale value")
	}
	if v, loaded := c.GetOrSet("stale", "new"); loaded || v != "new" {
		t.Fatalf("GetOrSet over stale = %q, %v; want new, false (stale loses)", v, loaded)
	}
	if v, ok := c.Get("stale"); !ok || v != "new" {
		t.Fatalf("Get after overwrite = %q, %v; want new, true", v, ok)
	}

	c.SetNegative("ghost")
	if _, ok := c.Get("ghost"); ok {
		t.Fatal("plain Get must not hit a negative marker")
	}
	if !c.Delete("ghost") {
		t.Fatal("Delete must remove a negative marker and report true")
	}
	if _, state := c.LookupLoad("ghost"); state != LoadMiss {
		t.Fatalf("state after Delete = %v; want miss", state)
	}

	c.SetLoaded("inv", "v")
	clock = 250 // stale again (fresh 201 at the latest)
	if !c.Delete("inv") {
		t.Fatal("Delete must remove a stale entry and report true")
	}

	// Set over a stale entry resets the loader state entirely.
	clock = 300
	c.SetLoaded("reset", "v1")
	clock = 401 // stale
	c.Set("reset", "v2")
	if v, state := c.LookupLoad("reset"); state != LoadHit || v != "v2" {
		t.Fatalf("after Set over stale: %q, %v; want v2, hit", v, state)
	}
}
