package stemcache

// Read-through loading tests: singleflight deduplication, loader chains,
// negative caching, TTL jitter, stale-while-revalidate, and the
// expiry-boundary determinism the load path depends on. Wall time never
// decides an assertion — every TTL test injects c.now.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tenant"
)

// loaderCfg is a small geometry with the load knobs the test wants.
func loaderCfg() Config {
	return Config{Capacity: 1 << 10, Shards: 4, Ways: 4, Seed: 7}
}

func TestGetOrLoadMissLoadsAndCaches(t *testing.T) {
	c := mustNew[string, string](loaderCfg())
	defer c.Close()
	calls := 0
	ld := func(ctx context.Context, key string) (string, error) {
		calls++
		return "v:" + key, nil
	}
	v, err := c.GetOrLoad(context.Background(), "a", ld)
	if err != nil || v != "v:a" {
		t.Fatalf("GetOrLoad = %q, %v; want v:a, nil", v, err)
	}
	v, err = c.GetOrLoad(context.Background(), "a", ld)
	if err != nil || v != "v:a" {
		t.Fatalf("second GetOrLoad = %q, %v; want v:a, nil", v, err)
	}
	if calls != 1 {
		t.Fatalf("loader calls = %d; want 1 (second call must be a cache hit)", calls)
	}
	st := c.Stats()
	if st.Loads != 1 || st.Gets != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v; want Loads 1, Gets 2, Hits 1, Misses 1", st)
	}
}

func TestGetOrLoadSingleflight(t *testing.T) {
	c := mustNew[string, int](loaderCfg())
	defer c.Close()
	const waiters = 63
	var calls atomic.Int64
	ld := func(ctx context.Context, key string) (int, error) {
		calls.Add(1)
		// Hold the flight open until every other goroutine is provably
		// waiting on it (LoadDedup counts them as they arrive), so the
		// dedup count is exact, not scheduling-dependent.
		for c.Stats().LoadDedup < waiters {
			time.Sleep(100 * time.Microsecond)
		}
		return 42, nil
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, waiters+1)
	for i := 0; i < waiters+1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, err := c.GetOrLoad(context.Background(), "hot", ld)
			if err != nil || v != 42 {
				errs <- fmt.Errorf("GetOrLoad = %d, %v; want 42, nil", v, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("loader calls = %d; want 1 (singleflight)", n)
	}
	st := c.Stats()
	if st.Loads != 1 || st.LoadDedup != waiters {
		t.Fatalf("Loads = %d, LoadDedup = %d; want 1, %d", st.Loads, st.LoadDedup, waiters)
	}
}

// TestLoadAfterCompletedFlight replays, deterministically, the interleaving
// that once made a second leader: a caller whose lookup missed reaches load
// only after the leader has stored the value and removed its flight. It must
// be served what the leader stored — a value or a cached absence — without a
// loader call and without counting another Get; only a stale entry loads.
func TestLoadAfterCompletedFlight(t *testing.T) {
	var clock int64
	cfg := loaderCfg()
	cfg.LoadTTL, cfg.StaleTTL, cfg.NegativeTTL = time.Second, time.Minute, time.Minute
	c := mustNew[string, string](cfg)
	defer c.Close()
	c.now = func() int64 { return clock }
	calls := map[string]int{}
	ld := func(ctx context.Context, key string) (string, error) {
		calls[key]++
		if key == "absent" {
			return "", ErrNotFound
		}
		return fmt.Sprintf("v%d:%s", calls[key], key), nil
	}
	ctx := context.Background()
	for _, key := range []string{"a", "absent"} {
		want, wantErr := c.GetOrLoad(ctx, key, ld)
		if v, err := c.load(ctx, tenant.DefaultID, key, ld); v != want || err != wantErr {
			t.Errorf("load(%q) after a completed flight = %q, %v; want %q, %v", key, v, err, want, wantErr)
		}
	}
	if calls["a"] != 1 || calls["absent"] != 1 {
		t.Errorf("loader calls = %v; want 1 per key", calls)
	}
	if st := c.Stats(); st.Gets != 2 || st.Loads != 2 || st.LoadDedup != 0 {
		t.Errorf("Gets = %d, Loads = %d, LoadDedup = %d; want 2, 2, 0", st.Gets, st.Loads, st.LoadDedup)
	}

	clock += int64(2 * time.Second) // past "a"'s freshness, inside its stale window
	if v, err := c.load(ctx, tenant.DefaultID, "a", ld); err != nil || v != "v2:a" {
		t.Errorf("load of a stale entry = %q, %v; want v2:a, nil (a stale entry still loads)", v, err)
	}
}

func TestGetOrLoadErrorNotCached(t *testing.T) {
	c := mustNew[string, string](loaderCfg())
	defer c.Close()
	boom := errors.New("origin down")
	calls := 0
	ld := func(ctx context.Context, key string) (string, error) {
		calls++
		return "", boom
	}
	if _, err := c.GetOrLoad(context.Background(), "a", ld); !errors.Is(err, boom) {
		t.Fatalf("err = %v; want %v", err, boom)
	}
	if _, err := c.GetOrLoad(context.Background(), "a", ld); !errors.Is(err, boom) {
		t.Fatalf("second err = %v; want %v", err, boom)
	}
	if calls != 2 {
		t.Fatalf("loader calls = %d; want 2 (errors other than ErrNotFound are not cached)", calls)
	}
}

func TestGetOrLoadWaiterCancel(t *testing.T) {
	c := mustNew[string, int](loaderCfg())
	defer c.Close()
	release := make(chan struct{})
	ld := func(ctx context.Context, key string) (int, error) {
		<-release
		return 7, nil
	}
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		if v, err := c.GetOrLoad(context.Background(), "k", ld); err != nil || v != 7 {
			t.Errorf("leader GetOrLoad = %d, %v; want 7, nil", v, err)
		}
	}()
	// Wait until the leader's flight is registered, then join it with an
	// already-cancelled context: the waiter must give up immediately while
	// the leader's load continues.
	for c.Stats().Loads == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.GetOrLoad(ctx, "k", ld); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v; want context.Canceled", err)
	}
	close(release)
	<-leaderDone
}

func TestNegativeCaching(t *testing.T) {
	cfg := loaderCfg()
	cfg.NegativeTTL = 100
	c := mustNew[string, string](cfg)
	defer c.Close()
	clock := int64(1000)
	c.now = func() int64 { return clock }

	calls := 0
	ld := func(ctx context.Context, key string) (string, error) {
		calls++
		return "", fmt.Errorf("wrapped: %w", ErrNotFound)
	}
	if _, err := c.GetOrLoad(context.Background(), "ghost", ld); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v; want ErrNotFound", err)
	}
	// Within NegativeTTL: answered by the marker, no loader call.
	clock = 1100 // marker exp is 1000+100; live exactly at its deadline
	if _, err := c.GetOrLoad(context.Background(), "ghost", ld); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v; want ErrNotFound", err)
	}
	if calls != 1 {
		t.Fatalf("loader calls = %d; want 1 (absence cached)", calls)
	}
	if st := c.Stats(); st.NegativeHits != 1 {
		t.Fatalf("NegativeHits = %d; want 1", st.NegativeHits)
	}
	// Plain Get sees a miss, never a zero-value hit.
	if v, ok := c.Get("ghost"); ok {
		t.Fatalf("Get on negative marker = %q, true; want miss", v)
	}
	// Past NegativeTTL the marker expires and the loader runs again.
	clock = 1101
	if _, err := c.GetOrLoad(context.Background(), "ghost", ld); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v; want ErrNotFound", err)
	}
	if calls != 2 {
		t.Fatalf("loader calls = %d; want 2 (marker expired)", calls)
	}
}

func TestNegativeTTLZeroDisablesCaching(t *testing.T) {
	c := mustNew[string, string](loaderCfg())
	defer c.Close()
	calls := 0
	ld := func(ctx context.Context, key string) (string, error) {
		calls++
		return "", ErrNotFound
	}
	c.GetOrLoad(context.Background(), "ghost", ld)
	c.GetOrLoad(context.Background(), "ghost", ld)
	if calls != 2 {
		t.Fatalf("loader calls = %d; want 2 (no negative caching configured)", calls)
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

	ld := func(ctx context.Context, key string) (string, error) { return "v", nil }
	const n = 16
	for i := 0; i < n; i++ {
		c.GetOrLoad(context.Background(), fmt.Sprintf("k%02d", i), ld)
	}
	// At the full (unjittered) deadline every entry must already be gone…
	clock = cfg.LoadTTL.Nanoseconds() + 1
	for i := 0; i < n; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%02d", i)); ok {
			t.Fatalf("k%02d still live past the full TTL; jitter must only shorten", i)
		}
	}
	// …and the deadlines must not coincide: reload and probe at half TTL,
	// where a 0.5 jitter leaves some entries live and kills others.
	clock = 0
	for i := 0; i < n; i++ {
		c.Delete(fmt.Sprintf("k%02d", i))
		c.GetOrLoad(context.Background(), fmt.Sprintf("k%02d", i), ld)
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

func TestStaleWhileRevalidate(t *testing.T) {
	cfg := loaderCfg()
	cfg.LoadTTL = 1000
	cfg.StaleTTL = 10000
	c := mustNew[string, string](cfg)
	defer c.Close()
	clock := int64(0)
	c.now = func() int64 { return clock }

	gate := make(chan struct{})
	var phase atomic.Int32 // 1 = first load, 2 = refresh
	ld := func(ctx context.Context, key string) (string, error) {
		switch phase.Add(1) {
		case 1:
			return "v1", nil
		default:
			<-gate // prove the foreground path never waits here
			return "v2", nil
		}
	}
	if v, _ := c.GetOrLoad(context.Background(), "k", ld); v != "v1" {
		t.Fatalf("initial load = %q; want v1", v)
	}
	// Enter the stale window: fresh deadline passed, expiry far away.
	clock = cfg.LoadTTL.Nanoseconds() + 1
	// With the refresh loader blocked on gate, a stale serve returning at
	// all proves zero loader calls on the foreground path.
	for i := 0; i < 4; i++ {
		if v, err := c.GetOrLoad(context.Background(), "k", ld); err != nil || v != "v1" {
			t.Fatalf("stale GetOrLoad = %q, %v; want v1, nil", v, err)
		}
	}
	st := c.Stats()
	if st.StaleServed != 4 {
		t.Fatalf("StaleServed = %d; want 4", st.StaleServed)
	}
	// Exactly one background refresh runs no matter how many stale serves
	// scheduled it.
	close(gate)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, state := c.LookupLoad("k"); state == LoadHit && v == "v2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background refresh never installed v2")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if st := c.Stats(); st.Loads != 2 {
		t.Fatalf("Loads = %d; want 2 (initial + one refresh)", st.Loads)
	}
}

func TestSWRCloseDrainsWorkers(t *testing.T) {
	cfg := loaderCfg()
	cfg.LoadTTL = 1000
	cfg.StaleTTL = 10000
	c := mustNew[string, string](cfg)
	clock := int64(0)
	c.now = func() int64 { return clock }

	entered := make(chan struct{}, 1)
	ld := func(ctx context.Context, key string) (string, error) {
		if ctx.Err() == nil {
			select {
			case entered <- struct{}{}:
			default:
			}
		}
		<-ctx.Done() // refresh blocks until Close cancels it
		return "", ctx.Err()
	}
	c.SetLoaded("k", "v1")
	clock = cfg.LoadTTL.Nanoseconds() + 1
	if v, err := c.GetOrLoad(context.Background(), "k", ld); err != nil || v != "v1" {
		t.Fatalf("stale GetOrLoad = %q, %v; want v1, nil", v, err)
	}
	<-entered // the background refresh is now inside the loader
	done := make(chan struct{})
	go func() { c.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not cancel and drain the revalidation pool")
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
