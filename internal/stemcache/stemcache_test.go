package stemcache

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// small returns a deliberately tiny cache so tests exercise eviction.
func small(t *testing.T, cfg Config) *Cache[string, int] {
	t.Helper()
	return mustNew[string, int](cfg)
}

func TestGetSetDelete(t *testing.T) {
	c := small(t, Config{Capacity: 256, Shards: 2, Seed: 1})
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Set("a", 1)
	c.Set("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v,%v want 1,true", v, ok)
	}
	c.Set("a", 10) // overwrite
	if v, _ := c.Get("a"); v != 10 {
		t.Fatalf("overwrite lost: got %d", v)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if !c.Delete("a") {
		t.Fatal("Delete(a) reported absent")
	}
	if c.Delete("a") {
		t.Fatal("double Delete reported resident")
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("deleted key still resident")
	}
	st := c.Stats()
	if st.Gets != 4 || st.Hits != 2 || st.Misses != 2 || st.Puts != 3 || st.Deletes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestZeroConfigDefaults(t *testing.T) {
	c := mustNew[int, int](Config{})
	defer c.Close()
	if c.Capacity() < 1<<16 {
		t.Fatalf("default capacity %d < 65536", c.Capacity())
	}
	if c.Shards() != 16 {
		t.Fatalf("default shards = %d, want 16", c.Shards())
	}
	c.Set(7, 7)
	if v, ok := c.Get(7); !ok || v != 7 {
		t.Fatal("roundtrip failed on zero config")
	}
}

func TestCapacityNormalization(t *testing.T) {
	// 1000 entries over 3 shards: shards round to 4, sets to a power of
	// two, and the result must cover the request.
	c := mustNew[int, int](Config{Capacity: 1000, Shards: 3, Ways: 8})
	if c.Shards() != 4 {
		t.Fatalf("shards = %d, want 4", c.Shards())
	}
	if c.Capacity() < 1000 {
		t.Fatalf("capacity %d below request", c.Capacity())
	}
}

func TestEvictionBoundsResidency(t *testing.T) {
	c := mustNew[int, int](Config{Capacity: 128, Shards: 2, Ways: 4, Seed: 3})
	for i := 0; i < 10_000; i++ {
		c.Set(i, i)
	}
	if c.Len() > c.Capacity() {
		t.Fatalf("Len %d exceeds capacity %d", c.Len(), c.Capacity())
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions after 10k inserts into 128 entries")
	}
	// Conservation: inserts - (still resident) - evicted == 0.
	if got := int(st.Puts) - c.Len() - int(st.Evictions); got != 0 {
		t.Fatalf("entry conservation violated by %d (puts=%d len=%d evictions=%d)",
			got, st.Puts, c.Len(), st.Evictions)
	}
}

func TestTTLLazyExpiry(t *testing.T) {
	var clk clock.Manual
	clk.Advance(1)
	c := mustNew[string, int](Config{Capacity: 256, Shards: 1, Seed: 1, Clock: &clk})

	c.SetWithTTL("k", 1, time.Second)
	c.Set("forever", 2) // no TTL
	if _, ok := c.Get("k"); !ok {
		t.Fatal("entry expired before its TTL")
	}
	clk.Advance(2 * time.Second)
	if _, ok := c.Get("k"); ok {
		t.Fatal("entry survived its TTL")
	}
	if _, ok := c.Get("forever"); !ok {
		t.Fatal("TTL-less entry expired")
	}
	st := c.Stats()
	if st.Expirations != 1 {
		t.Fatalf("Expirations = %d, want 1", st.Expirations)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after expiry, want 1", c.Len())
	}
	// Delete of an expired entry reports absent.
	c.SetWithTTL("k2", 1, time.Second)
	clk.Advance(2 * time.Second)
	if c.Delete("k2") {
		t.Fatal("Delete returned true for an expired entry")
	}
}

// TestExpiryBoundaryDeterministic: with the clock read under the shard lock,
// a key read exactly at its deadline is deterministically on the live side
// of it, and crossing the deadline expires it exactly once.
func TestExpiryBoundaryDeterministic(t *testing.T) {
	var clk clock.Manual
	clk.Advance(1000)
	c := mustNew[string, string](Config{Capacity: 1 << 10, Shards: 4, Ways: 4, Seed: 7, Clock: &clk})
	defer c.Close()

	c.SetWithTTL("plain", "v", 100) // exp 1100
	clk.Advance(100)
	if _, ok := c.Get("plain"); !ok {
		t.Fatal("Get exactly at the expiry deadline must still hit")
	}
	clk.Advance(1)
	if _, ok := c.Get("plain"); ok {
		t.Fatal("Get one past the deadline must miss")
	}
	if st := c.Stats(); st.Expirations != 1 {
		t.Fatalf("Expirations = %d; want exactly 1", st.Expirations)
	}
	if _, ok := c.Get("plain"); ok {
		t.Fatal("expired entry resurrected")
	}
	if st := c.Stats(); st.Expirations != 1 || st.Gets != st.Hits+st.Misses {
		t.Fatalf("after re-probe: Expirations = %d (want still 1, no double count), Gets %d != Hits %d + Misses %d",
			st.Expirations, st.Gets, st.Hits, st.Misses)
	}
}

func TestDefaultTTLApplied(t *testing.T) {
	var clk clock.Manual
	clk.Advance(1)
	c := mustNew[string, int](Config{Capacity: 64, Shards: 1, DefaultTTL: time.Minute, Seed: 1, Clock: &clk})
	c.Set("k", 1)
	clk.Advance(2 * time.Minute)
	if _, ok := c.Get("k"); ok {
		t.Fatal("DefaultTTL not applied by Set")
	}
}

// TestDeterministicStats locks the reproducibility contract: a fixed seed
// and a fixed single-goroutine op sequence give bit-identical Stats — across
// cache instances and, for string/int keys, across processes.
func TestDeterministicStats(t *testing.T) {
	run := func() (Stats, int) {
		c := mustNew[int, string](Config{Capacity: 1024, Shards: 4, Ways: 4, Seed: 42})
		for i := 0; i < 50_000; i++ {
			k := (i * 7) % 3000
			if _, ok := c.Get(k); !ok {
				c.Set(k, "v")
			}
			if i%97 == 0 {
				c.Delete((i * 13) % 3000)
			}
		}
		return c.Stats(), c.Len()
	}
	s1, l1 := run()
	s2, l2 := run()
	if s1 != s2 {
		t.Fatalf("stats differ across identical runs:\n%+v\n%+v", s1, s2)
	}
	if l1 != l2 {
		t.Fatalf("Len differs: %d vs %d", l1, l2)
	}
	if s1.ShadowHits == 0 {
		t.Fatal("workload produced no shadow hits; determinism test is vacuous")
	}
}

// TestMixedStatsGolden pins, as constants, every Stats field (and Len) of one
// goroutine's cache-aside run over the seeded "mixed" key stream (a Zipfian
// hot set interleaved with a sweep over twice the capacity) at lib-mixed's
// geometry, with a share of TTL'd writes and deletes under a fake clock that
// advances one microsecond per operation. TestDeterministicStats compares two
// runs in one process; this one holds any change to the host's data layout
// to the exact behaviour it had before.
func TestMixedStatsGolden(t *testing.T) {
	const capacity = 8192
	var clk clock.Manual
	c := mustNew[string, int](Config{Capacity: capacity, Seed: 11, Clock: &clk})
	next, err := workloads.NewKeyStream("mixed", capacity, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400_000; i++ {
		if i > 0 {
			clk.Advance(time.Microsecond)
		}
		k := next()
		switch i % 16 {
		case 0, 1:
			c.SetWithTTL(k, i, 30*time.Millisecond)
		case 2:
			c.Delete(k)
		default:
			if _, ok := c.Get(k); !ok {
				c.Set(k, i)
			}
		}
	}
	want := Stats{
		Gets: 325000, Hits: 172529, Misses: 152471, Puts: 202471, Deletes: 13275, Evictions: 145649, Expirations: 8705,
		SecondaryHits: 550, ShadowHits: 75992, PolicySwaps: 795, Couplings: 2896, Decouplings: 2838,
		Spills: 8838, Receives: 8838,
		TakerSets: 284, GiverSets: 32, CoupledSets: 116,
	}
	if got := c.Stats(); got != want {
		t.Fatalf("Stats moved:\n got %+v\nwant %+v", got, want)
	}
	if got := c.Len(); got != 8070 {
		t.Fatalf("Len = %d, want 8070", got)
	}
}

// TestDefaultWaysWidenSTEMsLead runs lib-mixed's key stream (a Zipfian hot
// set interleaved with a sweep over twice the capacity) cache-aside — Get,
// then Set on a miss — through STEM and the sharded LRU, each at the default
// geometry and at 8 ways, and pins the four hit counts. The default is the
// paper's 16 ways, where each set's shadow directory holds twice the victim
// history it holds at 8, so STEM/LRU misses must read lower at the default
// than at 8 ways; a default of 8 makes the two geometries one and fails.
func TestDefaultWaysWidenSTEMsLead(t *testing.T) {
	const capacity, ops = 8192, 400_000
	misses := func(name string, build func(Config) *Cache[string, int], ways int, want uint64) float64 {
		c := build(Config{Capacity: capacity, Ways: ways, Seed: 11})
		next, err := workloads.NewKeyStream("mixed", capacity, 11)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < ops; i++ {
			k := next()
			if _, ok := c.Get(k); !ok {
				c.Set(k, i)
			}
		}
		hits := c.Stats().Hits
		if hits != want {
			t.Errorf("%s at %d ways: %d hits, want %d", name, c.cfg.Ways, hits, want)
		}
		return float64(ops - hits)
	}
	stem, lru := mustNew[string, int], mustLRU[string, int]
	def := misses("STEM", stem, 0, 233413) / misses("LRU", lru, 0, 181775)
	eight := misses("STEM", stem, 8, 227875) / misses("LRU", lru, 8, 181717)
	t.Logf("STEM/LRU misses: %.4f at the default, %.4f at 8 ways", def, eight)
	if def >= eight {
		t.Errorf("STEM/LRU misses %.4f at the default, not below %.4f at 8 ways", def, eight)
	}
}

// TestStemBeatsShardedLRUOnScanMix is the acceptance check behind the
// benchmark claim: on a scan-heavy stream that thrashes LRU, the STEM
// engine's per-set BIP dueling retains part of each set's working set.
func TestStemBeatsShardedLRUOnScanMix(t *testing.T) {
	cfg := Config{Capacity: 4096, Shards: 4, Ways: 8, Seed: 7}
	hitRate := func(c *Cache[int, int]) float64 {
		n := c.Capacity() * 2 // working set twice the cache
		for pass := 0; pass < 8; pass++ {
			for k := 0; k < n; k++ {
				if _, ok := c.Get(k); !ok {
					c.Set(k, k)
				}
			}
		}
		return c.Stats().HitRate()
	}
	stem := hitRate(mustNew[int, int](cfg))
	lru := hitRate(mustLRU[int, int](cfg))
	t.Logf("scan-mix hit rate: STEM %.3f vs sharded-LRU %.3f", stem, lru)
	if stem <= lru {
		t.Fatalf("STEM hit rate %.3f not above sharded-LRU %.3f on scan mix", stem, lru)
	}
	if stem < 0.10 {
		t.Fatalf("STEM hit rate %.3f implausibly low; BIP dueling not engaging", stem)
	}
}

func TestPolicySwapsAndSpillsHappen(t *testing.T) {
	c := mustNew[int, int](Config{Capacity: 1024, Shards: 1, Ways: 8, Seed: 9})
	// Skewed stream: a handful of hot keys plus a scan. Some sets become
	// takers, some givers; scan sets swap to BIP.
	for pass := 0; pass < 20; pass++ {
		for k := 0; k < 3000; k++ {
			if _, ok := c.Get(k); !ok {
				c.Set(k, k)
			}
		}
		for h := 0; h < 32; h++ {
			for rep := 0; rep < 8; rep++ {
				if _, ok := c.Get(100000 + h); !ok {
					c.Set(100000+h, h)
				}
			}
		}
	}
	st := c.Stats()
	if st.PolicySwaps == 0 {
		t.Fatalf("temporal mechanism inert: %+v", st)
	}
	if st.ShadowHits == 0 {
		t.Fatalf("shadow directory inert: %+v", st)
	}
}

func TestShardedLRUDisablesMechanisms(t *testing.T) {
	c := mustLRU[int, int](Config{Capacity: 512, Shards: 2, Ways: 4, Seed: 1})
	for pass := 0; pass < 10; pass++ {
		for k := 0; k < 2000; k++ {
			if _, ok := c.Get(k); !ok {
				c.Set(k, k)
			}
		}
	}
	st := c.Stats()
	if st.PolicySwaps != 0 || st.Couplings != 0 || st.Spills != 0 {
		t.Fatalf("baseline ran STEM mechanisms: %+v", st)
	}
	// The shadow directory still observes (it is the demand monitor), but
	// must not act.
	if st.Evictions == 0 {
		t.Fatal("baseline never evicted")
	}
}

// registryMatchesStats holds every "stemcache.*" counter name, through both
// registry views, to the Stats field it is derived from.
func registryMatchesStats[K comparable, V any](t *testing.T, reg *obs.Registry, c *Cache[K, V]) Stats {
	t.Helper()
	st := c.Stats()
	want := map[string]uint64{
		"stemcache.gets":           st.Gets,
		"stemcache.hits":           st.Hits,
		"stemcache.misses":         st.Misses,
		"stemcache.puts":           st.Puts,
		"stemcache.deletes":        st.Deletes,
		"stemcache.evictions":      st.Evictions,
		"stemcache.expirations":    st.Expirations,
		"stemcache.secondary_hits": st.SecondaryHits,
		"stemcache.shadow_hits":    st.ShadowHits,
		"stemcache.policy_swaps":   st.PolicySwaps,
		"stemcache.couplings":      st.Couplings,
		"stemcache.decouplings":    st.Decouplings,
		"stemcache.spills":         st.Spills,
		"stemcache.receives":       st.Receives,
	}
	snap := reg.Snapshot()
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for name, v := range want {
		if got := snap[name]; got != v {
			t.Errorf("registry %s = %v, stats say %d", name, got, v)
		}
		pn := strings.ReplaceAll(name, ".", "_")
		if line := fmt.Sprintf("# TYPE %s counter\n%s %d\n", pn, pn, v); !strings.Contains(prom.String(), line) {
			t.Errorf("exposition lacks %q", line)
		}
	}
	if n := len(snap); n != len(want) {
		t.Errorf("registry holds %d counters, want %d: %v", n, len(want), reg.Names())
	}
	return st
}

func TestMetricsRegistryWiring(t *testing.T) {
	reg := obs.NewRegistry()
	c := mustNew[int, int](Config{Capacity: 256, Shards: 2, Ways: 4, Seed: 1, Metrics: reg})
	for pass := 0; pass < 10; pass++ {
		for k := 0; k < 1000; k++ {
			if _, ok := c.Get(k); !ok {
				c.Set(k, k)
			}
		}
	}
	c.Delete(999)
	st := registryMatchesStats(t, reg, c)
	if st.Hits == 0 || st.Evictions == 0 || st.ShadowHits == 0 || st.Spills == 0 || st.PolicySwaps == 0 ||
		st.Deletes != 1 {
		t.Fatalf("workload left counters idle: %+v", st)
	}
}

// TestMetricsScrapeUnderLoad scrapes while writers run: a scrape only takes
// the locks Stats takes, and once the writers stop the registry and Stats
// agree field for field.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	reg := obs.NewRegistry()
	c := mustNew[int, int](Config{Capacity: 512, Shards: 4, Ways: 4, Seed: 2, Metrics: reg})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		var last uint64
		for {
			gets := reg.Snapshot()["stemcache.gets"].(uint64)
			if gets < last {
				t.Errorf("stemcache.gets went backwards: %d after %d", gets, last)
			}
			last = gets
			if err := reg.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				k := (i*7 + g*13) % 3000
				if _, ok := c.Get(k); !ok {
					c.Set(k, i)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-scraped
	if st := registryMatchesStats(t, reg, c); st.Gets != 80000 || st.Gets != st.Hits+st.Misses {
		t.Fatalf("Gets = %d (Hits %d + Misses %d), want 80000", st.Gets, st.Hits, st.Misses)
	}
}

func TestObserverEventStream(t *testing.T) {
	var events []obs.Event
	c := mustNew[int, int](Config{
		Capacity: 512, Shards: 2, Ways: 4, Seed: 3,
		Observer: obs.ObserverFunc(func(e obs.Event) { events = append(events, e) }),
	})
	for pass := 0; pass < 10; pass++ {
		for k := 0; k < 2000; k++ {
			if _, ok := c.Get(k); !ok {
				c.Set(k, k)
			}
		}
	}
	st := c.Stats()
	counts := map[obs.EventType]uint64{}
	for _, e := range events {
		counts[e.Type]++
		if e.Set < 0 || e.Set >= c.Shards()*c.sets {
			t.Fatalf("event set id %d out of range", e.Set)
		}
	}
	if counts[obs.EvShadowHit] != st.ShadowHits {
		t.Errorf("shadow_hit events %d != stats %d", counts[obs.EvShadowHit], st.ShadowHits)
	}
	if counts[obs.EvPolicySwap] != st.PolicySwaps {
		t.Errorf("policy_swap events %d != stats %d", counts[obs.EvPolicySwap], st.PolicySwaps)
	}
	if counts[obs.EvSpill] != st.Spills {
		t.Errorf("spill events %d != stats %d", counts[obs.EvSpill], st.Spills)
	}
	if counts[obs.EvCouple] != st.Couplings {
		t.Errorf("couple events %d != stats %d", counts[obs.EvCouple], st.Couplings)
	}
}

func TestCustomHasher(t *testing.T) {
	// A pathological single-bucket hasher must still be correct (every key
	// lands in one set and fights for Ways slots).
	c := mustWithHasher[int, int](Config{Capacity: 64, Shards: 1, Ways: 4}, func(int) uint64 { return 0 })
	for i := 0; i < 100; i++ {
		c.Set(i, i)
	}
	if c.Len() > 4 {
		t.Fatalf("single-bucket hasher grew Len to %d (> 4 ways)", c.Len())
	}
	hits := 0
	for i := 0; i < 100; i++ {
		if _, ok := c.Get(i); ok {
			hits++
		}
	}
	if hits == 0 || hits > 4 {
		t.Fatalf("resident count %d impossible for one 4-way set", hits)
	}
}

func TestNilHasherError(t *testing.T) {
	c, err := NewWithHasher[int, int](Config{}, nil)
	if err == nil || c != nil {
		t.Fatalf("NewWithHasher(nil) = %v, %v; want nil cache and an error", c, err)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Capacity: -1},
		{Shards: -2},
		{Ways: -1},
		{Ways: 1 << 15}, // one more than a recency link can index
		{DefaultTTL: -time.Second},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad[%d] (%+v): Validate() = nil, want error", i, cfg)
		}
		if c, err := New[int, int](cfg); err == nil || c != nil {
			t.Errorf("bad[%d]: New = %v, %v; want nil cache and an error", i, c, err)
		}
	}
	// The zero value, explicit defaults and the widest sets must validate.
	for i, cfg := range []Config{{}, {Capacity: 1 << 16, Shards: 16, Ways: 16}, {Ways: sim.MaxWays}} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("good[%d]: Validate() = %v, want nil", i, err)
		}
	}
}

func TestCloseReleasesEntries(t *testing.T) {
	c := mustNew[string, string](Config{Capacity: 128, Shards: 2, Seed: 1})
	for i := 0; i < 100; i++ {
		c.Set(fmt.Sprint(i), "v")
	}
	c.Close()
	c.Close() // idempotent
	if c.Len() != 0 {
		t.Fatalf("Len = %d after Close", c.Len())
	}
	if _, ok := c.Get("1"); ok {
		t.Fatal("entry survived Close")
	}
	c.Set("again", "v")
	if _, ok := c.Get("again"); !ok {
		t.Fatal("cache unusable after Close")
	}
}

func TestStringKeysAcrossTypes(t *testing.T) {
	// The maphash fallback path: struct keys.
	type point struct{ X, Y int }
	c := mustNew[point, string](Config{Capacity: 128, Shards: 2})
	c.Set(point{1, 2}, "a")
	c.Set(point{3, 4}, "b")
	if v, ok := c.Get(point{1, 2}); !ok || v != "a" {
		t.Fatalf("struct key roundtrip: %v %v", v, ok)
	}
	if _, ok := c.Get(point{9, 9}); ok {
		t.Fatal("phantom struct key")
	}
}
