package workloads

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func TestNewKeyStreamDeterminism(t *testing.T) {
	for _, dist := range KeyDists() {
		a, err := NewKeyStream(dist, 1024, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewKeyStream(dist, 1024, 7)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10_000; i++ {
			if ka, kb := a(), b(); ka != kb {
				t.Fatalf("%s: streams with equal seeds diverge at %d: %q vs %q", dist, i, ka, kb)
			}
		}
	}
}

func TestNewKeyStreamSeedsDiffer(t *testing.T) {
	a, _ := NewKeyStream("zipf", 1024, 1)
	b, _ := NewKeyStream("zipf", 1024, 2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a() == b() {
			same++
		}
	}
	if same == 1000 {
		t.Fatal("distinct seeds produced identical zipf streams")
	}
}

func TestNewKeyStreamShapes(t *testing.T) {
	const capacity = 1024

	// scan: strictly sequential from a seed-derived phase, wrapping at 2x
	// capacity.
	scan, err := NewKeyStream("scan", capacity, 1)
	if err != nil {
		t.Fatal(err)
	}
	first := scan()
	if !strings.HasPrefix(first, "s") {
		t.Fatalf("scan key %q outside the scan range", first)
	}
	phase, err := strconv.Atoi(first[1:])
	if err != nil || phase < 0 || phase >= 2*capacity {
		t.Fatalf("scan phase %q not in [0, %d)", first, 2*capacity)
	}
	for i := 1; i < 3*2*capacity; i++ {
		want := "s" + strconv.Itoa((phase+i)%(2*capacity))
		if got := scan(); got != want {
			t.Fatalf("scan key %d = %q, want %q", i, got, want)
		}
	}

	// Distinct seeds start their sweeps at distinct phases.
	other, err := NewKeyStream("scan", capacity, 2)
	if err != nil {
		t.Fatal(err)
	}
	if o := other(); o == first {
		t.Fatalf("seeds 1 and 2 share scan phase %q", o)
	}

	// mixed: both the hot set and the scan appear, in disjoint key ranges.
	mixed, err := NewKeyStream("mixed", capacity, 1)
	if err != nil {
		t.Fatal(err)
	}
	var hot, scans int
	for i := 0; i < 10_000; i++ {
		k := mixed()
		switch {
		case strings.HasPrefix(k, "h"):
			hot++
		case strings.HasPrefix(k, "s"):
			scans++
		default:
			t.Fatalf("mixed produced key %q outside both ranges", k)
		}
	}
	if hot < 3000 || scans < 3000 {
		t.Fatalf("mixed split hot=%d scan=%d, want a rough 50/50", hot, scans)
	}

	// zipf: skewed — the most popular key recurs far above uniform.
	zipf, err := NewKeyStream("zipf", capacity, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < 10_000; i++ {
		counts[zipf()]++
	}
	if counts["z0"] < 100 { // uniform over 8*1024 keys would give ~1
		t.Fatalf("zipf head key seen %d times; distribution looks uniform", counts["z0"])
	}
}

// TestWorkerKeyStreamPartition: concurrent workers sweep disjoint scan
// slices whose union is the whole span, while sharing the hot keyspace.
func TestWorkerKeyStreamPartition(t *testing.T) {
	const capacity, workers = 1024, 4
	span := 2 * capacity
	seen := make([]map[string]bool, workers)
	union := map[string]bool{}
	for w := 0; w < workers; w++ {
		next, err := NewWorkerKeyStream("scan", capacity, uint64(w), w, workers)
		if err != nil {
			t.Fatal(err)
		}
		seen[w] = map[string]bool{}
		for i := 0; i < span; i++ { // more than a full slice sweep
			k := next()
			seen[w][k] = true
			union[k] = true
		}
		if got, want := len(seen[w]), span/workers; got != want {
			t.Fatalf("worker %d swept %d distinct keys, want %d", w, got, want)
		}
	}
	for a := 0; a < workers; a++ {
		for b := a + 1; b < workers; b++ {
			for k := range seen[a] {
				if seen[b][k] {
					t.Fatalf("workers %d and %d share scan key %q", a, b, k)
				}
			}
		}
	}
	if len(union) != span {
		t.Fatalf("union covers %d keys, want the whole span %d", len(union), span)
	}

	// The Zipfian hot set is intentionally shared across workers.
	a, err := NewWorkerKeyStream("zipf", capacity, 1, 0, workers)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewWorkerKeyStream("zipf", capacity, 2, 3, workers)
	if err != nil {
		t.Fatal(err)
	}
	heads := map[string]bool{}
	for i := 0; i < 1000; i++ {
		heads[a()] = false
	}
	shared := 0
	for i := 0; i < 1000; i++ {
		if _, ok := heads[b()]; ok {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("workers draw from disjoint zipf keyspaces; they must share the hot set")
	}
}

// TestHotspotShiftJumpsPartitions pins the hotspot-shift contract: every
// key is "hs<p>:<rank>" with rank inside the hot set, the partition p
// advances exactly at HotspotShiftEvery boundaries, and successive
// partitions' keyspaces are disjoint (distinct prefixes).
func TestHotspotShiftJumpsPartitions(t *testing.T) {
	const capacity = 256
	hot := (capacity * 3) / 4
	every := HotspotShiftEvery(capacity)
	next, err := NewKeyStream("hotspot-shift", capacity, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*every; i++ {
		k := next()
		rest, ok := strings.CutPrefix(k, "hs")
		if !ok {
			t.Fatalf("key %d = %q lacks the hs prefix", i, k)
		}
		pStr, rankStr, ok := strings.Cut(rest, ":")
		if !ok {
			t.Fatalf("key %d = %q lacks a partition separator", i, k)
		}
		p, err := strconv.Atoi(pStr)
		if err != nil || p != i/every {
			t.Fatalf("key %d = %q in partition %d, want %d", i, k, p, i/every)
		}
		rank, err := strconv.Atoi(rankStr)
		if err != nil || rank < 0 || rank >= hot {
			t.Fatalf("key %d = %q rank outside [0, %d)", i, k, hot)
		}
	}

	// The head of each partition's Zipf must dominate, same as "zipf".
	fresh, err := NewKeyStream("hotspot-shift", capacity, 11)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < every; i++ {
		counts[fresh()]++
	}
	if counts["hs0:0"] < every/20 {
		t.Fatalf("hotspot head key seen %d of %d draws; not skewed", counts["hs0:0"], every)
	}
}

func TestNewKeyStreamRejects(t *testing.T) {
	if _, err := NewKeyStream("bogus", 1024, 1); err == nil {
		t.Fatal("unknown distribution accepted")
	}
	if _, err := NewKeyStream("zipf", 0, 1); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := NewWorkerKeyStream("zipf", 1024, 1, 4, 4); err == nil {
		t.Fatal("out-of-range worker accepted")
	}
	if _, err := NewWorkerKeyStream("zipf", 1024, 1, 0, 0); err == nil {
		t.Fatal("zero workers accepted")
	}
}

// TestKeyMemoBounded: a stream's key memo grows with the distinct keys drawn,
// not with the keyspace, and a hotspot-shift stream drops each partition's
// keys at the shift.
func TestKeyMemoBounded(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	next, err := NewWorkerKeyStream("zipf", 1<<20, 1, 0, 1) // an 8M-key keyspace
	if err != nil {
		t.Fatal(err)
	}
	next()
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("building a 1<<20-capacity zipf stream and drawing once allocated %d bytes, want < 1 MB", d)
	}

	const capacity = 1 << 14
	hot := capacity * 3 / 4
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	base := heap()
	shift, err := NewKeyStream("hotspot-shift", capacity, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 11*HotspotShiftEvery(capacity); i++ { // ten shifts
		shift()
	}
	retained := heap() - base
	runtime.KeepAlive(shift)
	// One partition with every key drawn holds its page table, its pages and
	// a 16-byte allocation per "hs<p>:<rank>" string. The bound is one and a
	// half of that, so a single old partition left behind exceeds it.
	pages := (hot + memoPage - 1) / memoPage
	partition := pages*(8+memoPage*16) + hot*16
	if bound := int64(partition * 3 / 2); retained > bound {
		t.Errorf("after ten shifts the stream retains %d bytes; one partition's memo is at most %d", retained, partition)
	}
}

func BenchmarkKeyStream(b *testing.B) {
	for _, dist := range KeyDists() {
		b.Run(dist, func(b *testing.B) {
			next, err := NewWorkerKeyStream(dist, 8192, 0x57E4, 0, 2)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				next()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/key")
		})
	}
}
