package obs

import (
	"math"
	"sync"
	"testing"
)

// TestLatencyBucketGeometry pins the log-linear layout: indices are
// monotonic in the value, bounds are strictly increasing, and every value
// lands in the bucket whose bound range contains it.
func TestLatencyBucketGeometry(t *testing.T) {
	// Small values are exact.
	for v := uint64(0); v < latSubBuckets; v++ {
		if got := latBucketIndex(v); got != int(v) {
			t.Fatalf("latBucketIndex(%d) = %d, want exact", v, got)
		}
		if got := LatencyBucketBound(int(v)); got != v {
			t.Fatalf("LatencyBucketBound(%d) = %d, want %d", v, got, v)
		}
	}
	// Bounds strictly increase and tile the range.
	prev := uint64(0)
	for i := 1; i < latNumBuckets; i++ {
		b := LatencyBucketBound(i)
		if b <= prev {
			t.Fatalf("bucket %d bound %d not above previous %d", i, b, prev)
		}
		prev = b
	}
	if got := LatencyBucketBound(latNumBuckets - 1); got != math.MaxUint64 {
		t.Fatalf("last bound = %d, want MaxUint64", got)
	}
	// Every probed value maps into a bucket whose range covers it.
	probes := []uint64{0, 1, 31, 32, 33, 63, 64, 65, 100, 1000, 4095, 4096,
		1 << 20, 1<<20 + 12345, 1 << 40, math.MaxUint64 - 1, math.MaxUint64}
	for _, v := range probes {
		i := latBucketIndex(v)
		if i < 0 || i >= latNumBuckets {
			t.Fatalf("latBucketIndex(%d) = %d out of range", v, i)
		}
		if ub := LatencyBucketBound(i); v > ub {
			t.Fatalf("value %d above its bucket %d bound %d", v, i, ub)
		}
		if i > 0 {
			if lb := LatencyBucketBound(i - 1); v <= lb {
				t.Fatalf("value %d at or below bucket %d's lower neighbour bound %d", v, i, lb)
			}
		}
	}
}

// TestLatencyQuantileError: quantile estimates over a known distribution
// never understate and overshoot by at most one sub-bucket width.
func TestLatencyQuantileError(t *testing.T) {
	h := &LatencyHistogram{}
	const n = 100_000
	for i := uint64(1); i <= n; i++ {
		h.Observe(i) // uniform 1..n
	}
	if h.Count() != n {
		t.Fatalf("count = %d, want %d", h.Count(), n)
	}
	if h.Sum() != n*(n+1)/2 {
		t.Fatalf("sum = %d, want %d", h.Sum(), n*(n+1)/2)
	}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		exact := uint64(math.Ceil(q * n))
		got := h.Quantile(q)
		if got < exact {
			t.Errorf("Quantile(%g) = %d understates exact %d", q, got, exact)
		}
		// One sub-bucket of slack: bound ≤ exact * (1 + 2/latSubBuckets).
		if maxOK := float64(exact) * (1 + 2.0/latSubBuckets); float64(got) > maxOK {
			t.Errorf("Quantile(%g) = %d overshoots exact %d beyond bucket width", q, got, exact)
		}
	}
	if h.Max() < n || h.Quantile(1) != h.Max() {
		t.Errorf("Max = %d, Quantile(1) = %d, want both ≥ %d and equal", h.Max(), h.Quantile(1), uint64(n))
	}
	if mean := h.Mean(); math.Abs(mean-(n+1)/2) > 1 {
		t.Errorf("Mean = %v, want ~%v", mean, (n+1)/2)
	}
}

// TestLatencyMerge: merging worker histograms equals observing the union.
func TestLatencyMerge(t *testing.T) {
	var a, b, all LatencyHistogram
	for i := uint64(0); i < 1000; i++ {
		v := i * i % 7919
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		all.Observe(v)
	}
	var merged LatencyHistogram
	merged.Merge(&a)
	merged.Merge(&b)
	merged.Merge(nil) // no-op
	if merged.Count() != all.Count() || merged.Sum() != all.Sum() {
		t.Fatalf("merge count/sum %d/%d, want %d/%d", merged.Count(), merged.Sum(), all.Count(), all.Sum())
	}
	for _, q := range []float64{0.1, 0.5, 0.99} {
		if merged.Quantile(q) != all.Quantile(q) {
			t.Errorf("Quantile(%g): merged %d != union %d", q, merged.Quantile(q), all.Quantile(q))
		}
	}
}

// TestLatencyNilSafe: every method is a no-op sink on nil.
func TestLatencyNilSafe(t *testing.T) {
	var h *LatencyHistogram
	h.Observe(5)
	h.Merge(&LatencyHistogram{})
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 || h.Mean() != 0 || h.Bucket(3) != 0 {
		t.Fatal("nil LatencyHistogram leaked a value")
	}
}

// TestLatencyConcurrentObserve: concurrent writers plus a racing reader;
// run under -race this is the atomics contract's witness.
func TestLatencyConcurrentObserve(t *testing.T) {
	h := &LatencyHistogram{}
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // racing reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = h.Quantile(0.99)
				_ = h.Max()
			}
		}
	}()
	var ww sync.WaitGroup
	for w := 0; w < workers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < per; i++ {
				h.Observe(uint64(w*1000 + i))
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
}

// TestRegistryLatency: registry integration — idempotent constructor,
// snapshot summary, reset.
func TestRegistryLatency(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("hits")
	c.Inc()
	c.Add(4)
	if got := reg.Counter("hits").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := reg.Gauge("mpki")
	g.Set(12.25)
	if got := reg.Gauge("mpki").Value(); got != 12.25 {
		t.Fatalf("gauge = %v", got)
	}
	life := reg.Latency("life")
	for _, v := range []uint64{0, 1, 1, 2, 3, 8, 1023} {
		life.Observe(v)
	}
	if life.Count() != 7 || life.Sum() != 1038 {
		t.Fatalf("count/sum = %d/%d", life.Count(), life.Sum())
	}
	// Values below 32 get a bucket each.
	for i, want := range map[int]uint64{0: 1, 1: 2, 2: 1, 3: 1, 8: 1} {
		if got := life.Bucket(i); got != want {
			t.Fatalf("bucket %d = %d, want %d", i, got, want)
		}
	}

	l := reg.Latency("x.lat_us")
	if reg.Latency("x.lat_us") != l {
		t.Fatal("Latency not idempotent")
	}
	l.Observe(100)
	l.Observe(200)
	snap := reg.Snapshot()
	m, ok := snap["x.lat_us"].(map[string]any)
	if !ok {
		t.Fatalf("snapshot entry %T, want summary map", snap["x.lat_us"])
	}
	if m["count"].(uint64) != 2 || m["sum"].(uint64) != 300 {
		t.Fatalf("snapshot summary %v", m)
	}
	var nilReg *Registry
	if nilReg.Latency("y") != nil {
		t.Fatal("nil registry returned a live histogram")
	}
}
