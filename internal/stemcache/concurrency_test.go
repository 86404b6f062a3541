package stemcache

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// TestConcurrentMixedOps hammers one cache from many goroutines with
// overlapping Get/Set/Delete traffic. Run under -race this is the
// lock-striping correctness test; the closing assertions check the
// counters still reconcile.
func TestConcurrentMixedOps(t *testing.T) {
	c := mustNew[int, int](Config{Capacity: 2048, Shards: 8, Ways: 4, Seed: 5})
	const (
		workers = 8
		opsEach = 20_000
		keys    = 5000
	)
	var gets, puts atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				k := (g*31 + i*7) % keys
				switch i % 5 {
				case 0, 1, 2:
					gets.Add(1)
					if _, ok := c.Get(k); !ok {
						puts.Add(1)
						c.Set(k, k)
					}
				case 3:
					puts.Add(1)
					c.Set(k, i)
				default:
					c.Delete(k)
				}
			}
		}(g)
	}
	wg.Wait()

	st := c.Stats()
	if st.Gets != gets.Load() {
		t.Errorf("Stats.Gets = %d, issued %d", st.Gets, gets.Load())
	}
	if st.Puts != puts.Load() {
		t.Errorf("Stats.Puts = %d, issued %d", st.Puts, puts.Load())
	}
	if st.Gets != st.Hits+st.Misses {
		t.Errorf("Gets %d != Hits %d + Misses %d", st.Gets, st.Hits, st.Misses)
	}
	if st.Spills != st.Receives {
		t.Errorf("Spills %d != Receives %d", st.Spills, st.Receives)
	}
	if c.Len() > c.Capacity() {
		t.Errorf("Len %d exceeds capacity %d", c.Len(), c.Capacity())
	}
	// Every key still resident must be readable.
	if c.Len() == 0 {
		t.Error("cache empty after 160k mixed ops")
	}
}

// TestEvictionUnderContention drives far more distinct keys than capacity
// from many goroutines at once, so victim routing, spilling and the giver
// heap all run under contention.
func TestEvictionUnderContention(t *testing.T) {
	c := mustNew[int, int](Config{Capacity: 256, Shards: 4, Ways: 4, Seed: 11})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := g * 100_000
			for i := 0; i < 10_000; i++ {
				c.Set(base+i, i)
				if i%3 == 0 {
					c.Get(base + i - 1)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > c.Capacity() {
		t.Fatalf("Len %d exceeds capacity %d", c.Len(), c.Capacity())
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions under 80k inserts into 256 entries")
	}
	if got := int(st.Puts) - int(st.Deletes) - c.Len() - int(st.Evictions) - int(st.Expirations); got != 0 {
		// Puts counts overwrites too, so recompute conservatively: only
		// assert residency is bounded and non-negative.
		if c.Len() < 0 {
			t.Fatalf("negative Len %d", c.Len())
		}
	}
}

// TestConcurrentTTLExpiry advances a shared fake clock while readers and
// writers race over expiring entries.
func TestConcurrentTTLExpiry(t *testing.T) {
	var clk clock.Manual
	clk.Advance(1)
	c := mustNew[int, int](Config{Capacity: 1024, Shards: 4, Ways: 4, Seed: 13, Clock: &clk})

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5_000; i++ {
				k := (g*1000 + i) % 2000
				c.SetWithTTL(k, i, time.Millisecond)
				c.Get(k)
				if i%100 == 0 {
					clk.Advance(2 * time.Millisecond)
				}
			}
		}(g)
	}
	wg.Wait()

	// Everything set so far is stale after one more bump; touching each key
	// collects it.
	clk.Advance(time.Hour)
	for k := 0; k < 2000; k++ {
		if _, ok := c.Get(k); ok {
			t.Fatalf("key %d resident after global expiry", k)
		}
	}
	if st := c.Stats(); st.Expirations == 0 {
		t.Fatal("no expirations recorded")
	}
}

// TestExpiryRaceStatsConsistent hammers one expiring key from many
// goroutines while the injected clock sweeps across its deadline: however
// the ops interleave, every Get is exactly one hit or one miss and the
// entry expires at most once per store.
func TestExpiryRaceStatsConsistent(t *testing.T) {
	var clk clock.Manual
	clk.Advance(1)
	c := mustNew[string, int](Config{Capacity: 1 << 10, Shards: 4, Ways: 4, Seed: 7, Clock: &clk})
	defer c.Close()

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
		c.SetWithTTL("hot", r, 10)
		stores++
		clk.Advance(25) // sweep well past the deadline
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

// TestConcurrentObserver checks the serialized observer path under parallel
// load: the callback must never run concurrently with itself.
func TestConcurrentObserver(t *testing.T) {
	var inFlight atomic.Int32
	var overlaps atomic.Int32
	var events atomic.Uint64
	obsFn := obs.ObserverFunc(func(e obs.Event) {
		if inFlight.Add(1) != 1 {
			overlaps.Add(1)
		}
		events.Add(1)
		inFlight.Add(-1)
	})
	c := mustNew[int, int](Config{Capacity: 512, Shards: 4, Ways: 4, Seed: 17, Observer: obsFn})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10_000; i++ {
				k := g*50_000 + i
				if _, ok := c.Get(k % 3000); !ok {
					c.Set(k%3000, i)
				}
			}
		}(g)
	}
	wg.Wait()
	if overlaps.Load() != 0 {
		t.Fatalf("observer ran concurrently %d times", overlaps.Load())
	}
	if events.Load() == 0 {
		t.Fatal("no events reached the observer")
	}
}

// TestParallelSameKey pounds a single key from every goroutine — the
// worst-case contention point for one shard lock.
func TestParallelSameKey(t *testing.T) {
	c := mustNew[string, int](Config{Capacity: 64, Shards: 1, Seed: 19})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5_000; i++ {
				c.Set("hot", g)
				if v, ok := c.Get("hot"); ok && (v < 0 || v >= 16) {
					t.Errorf("torn value %d", v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

// TestConcurrentStatsAndLen reads aggregate views while writers run; run
// under -race this validates the per-shard locking of Stats/Len.
func TestConcurrentStatsAndLen(t *testing.T) {
	c := mustNew[int, int](Config{Capacity: 512, Shards: 4, Seed: 23})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				c.Set(i%4000, i)
				c.Get((i * 3) % 4000)
			}
		}
	}()
	for i := 0; i < 200; i++ {
		_ = c.Stats()
		if n := c.Len(); n < 0 || n > c.Capacity() {
			t.Errorf("Len %d out of range", n)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// BenchmarkParallelMixed is lib-mixed's scaling number from go test: every
// worker runs its own seeded "mixed" key stream cache-aside (Get, Set on a
// miss) at lib-mixed's geometry, the hot Zipfian keys shared by all workers
// and the sweep split between them. One iteration times worker 0's stream
// alone on a fresh cache, then every worker's at once on one shared cache,
// then every worker's at once on a cache of its own. par_speedup is
// workers × alone / shared, the figure bench reports as
// stemcache.par_speedup; par_speedup_disjoint is the same against the
// private caches, which share no line, so the gap between the two is what
// the workers pay for sharing one cache's shards. par_speedup_shared_shards
// splits that gap: on one shared cache, worker w issues only the keys of its
// stream whose set index is w modulo workers, so the workers still share
// every shard (its mutex, engine counters and heap) but no set.
func BenchmarkParallelMixed(b *testing.B) {
	const capacity, perWorker = 8192, 1 << 17
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		b.Skip("a speedup needs GOMAXPROCS >= 2")
	}
	seqs := make([][]string, workers)
	for w := range seqs {
		next, err := workloads.NewWorkerKeyStream("mixed", capacity, uint64(w)+1, w, workers)
		if err != nil {
			b.Fatal(err)
		}
		seqs[w] = make([]string, perWorker)
		for i := range seqs[w] {
			seqs[w][i] = next()
		}
	}
	fresh := func() *Cache[string, int] { return mustNew[string, int](Config{Capacity: capacity, Seed: 1}) }
	probe := fresh()
	bySet := make([][]string, workers)
	for w := range bySet {
		next, err := workloads.NewWorkerKeyStream("mixed", capacity, uint64(w)+1, w, workers)
		if err != nil {
			b.Fatal(err)
		}
		for len(bySet[w]) < perWorker {
			if k := next(); probe.setOf(probe.hasher(k))%workers == w {
				bySet[w] = append(bySet[w], k)
			}
		}
	}
	// run drives seqs[w] through caches[w] for every w at once and returns
	// the wall time until the last one finishes.
	run := func(seqs [][]string, caches []*Cache[string, int]) time.Duration {
		var wg sync.WaitGroup
		start := time.Now()
		for w, c := range caches {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, k := range seqs[w] {
					if _, ok := c.Get(k); !ok {
						c.Set(k, i)
					}
				}
			}()
		}
		wg.Wait()
		return time.Since(start)
	}
	var alone, shared, sharedShards, disjoint time.Duration
	for range b.N {
		alone += run(seqs, []*Cache[string, int]{fresh()})
		own := make([]*Cache[string, int], workers)
		for w := range own {
			own[w] = fresh()
		}
		shared += run(seqs, slices.Repeat([]*Cache[string, int]{fresh()}, workers))
		sharedShards += run(bySet, slices.Repeat([]*Cache[string, int]{fresh()}, workers))
		disjoint += run(seqs, own)
	}
	b.ReportMetric(float64(workers)*alone.Seconds()/shared.Seconds(), "par_speedup")
	b.ReportMetric(float64(workers)*alone.Seconds()/sharedShards.Seconds(), "par_speedup_shared_shards")
	b.ReportMetric(float64(workers)*alone.Seconds()/disjoint.Seconds(), "par_speedup_disjoint")
}
