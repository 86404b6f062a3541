package sim

import (
	"testing"
	"testing/quick"
)

func TestGeometryValidate(t *testing.T) {
	cases := []struct {
		name string
		g    Geometry
		ok   bool
	}{
		{"paper L2", Geometry{Sets: 2048, Ways: 16, LineSize: 64}, true},
		{"two-set toy", Geometry{Sets: 2, Ways: 4, LineSize: 64}, true},
		{"single set", Geometry{Sets: 1, Ways: 8, LineSize: 32}, true},
		{"non-pow2 sets", Geometry{Sets: 3, Ways: 4, LineSize: 64}, false},
		{"zero sets", Geometry{Sets: 0, Ways: 4, LineSize: 64}, false},
		{"zero ways", Geometry{Sets: 4, Ways: 0, LineSize: 64}, false},
		{"negative ways", Geometry{Sets: 4, Ways: -1, LineSize: 64}, false},
		{"widest set", Geometry{Sets: 4, Ways: MaxWays, LineSize: 64}, true},
		{"too many ways", Geometry{Sets: 4, Ways: MaxWays + 1, LineSize: 64}, false},
		{"non-pow2 line", Geometry{Sets: 4, Ways: 4, LineSize: 48}, false},
		{"zero line", Geometry{Sets: 4, Ways: 4, LineSize: 0}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.g.Validate()
			if (err == nil) != c.ok {
				t.Fatalf("Validate(%+v) = %v, want ok=%v", c.g, err, c.ok)
			}
		})
	}
}

func TestGeometryCapacity(t *testing.T) {
	g := Geometry{Sets: 2048, Ways: 16, LineSize: 64}
	if got, want := g.CapacityBytes(), 2<<20; got != want {
		t.Fatalf("CapacityBytes = %d, want %d (2MB paper config)", got, want)
	}
	if got, want := g.OffsetBits(), uint(6); got != want {
		t.Fatalf("OffsetBits = %d, want %d", got, want)
	}
	if got, want := g.IndexBits(), uint(11); got != want {
		t.Fatalf("IndexBits = %d, want %d", got, want)
	}
}

func TestGeometryIndexTagRoundTrip(t *testing.T) {
	g := Geometry{Sets: 64, Ways: 8, LineSize: 64}
	f := func(block uint64) bool {
		idx := g.Index(block)
		tag := g.Tag(block)
		return g.BlockFor(tag, idx) == block && idx >= 0 && idx < g.Sets
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeometryBlockAddr(t *testing.T) {
	g := Geometry{Sets: 8, Ways: 2, LineSize: 64}
	// All byte addresses within one line collapse to the same block.
	base := uint64(0x12340)
	want := g.BlockAddr(base)
	for off := uint64(0); off < 64; off++ {
		if got := g.BlockAddr(base + off); got != want {
			t.Fatalf("BlockAddr(%#x) = %#x, want %#x", base+off, got, want)
		}
	}
	if g.BlockAddr(base+64) == want {
		t.Fatal("next line collapsed into the same block")
	}
}

func TestGeometrySameIndexCongruence(t *testing.T) {
	// Blocks whose addresses are congruent mod Sets map to the same set
	// (the MOD mapping of paper §2.1).
	g := Geometry{Sets: 32, Ways: 4, LineSize: 64}
	for i := 0; i < 100; i++ {
		b := uint64(i)*uint64(g.Sets) + 7
		if g.Index(b) != 7 {
			t.Fatalf("Index(%d) = %d, want 7", b, g.Index(b))
		}
	}
}

func TestStatsRecord(t *testing.T) {
	var s Stats
	s.Record(Outcome{Hit: true})
	s.Record(Outcome{Hit: false, Writeback: true})
	s.Record(Outcome{Hit: true, Secondary: true, SecondaryHit: true})
	s.Record(Outcome{Hit: false, Secondary: true})
	if s.Accesses != 4 || s.Hits != 2 || s.Misses != 2 {
		t.Fatalf("basic counters wrong: %+v", s)
	}
	if s.SecondaryRefs != 2 || s.SecondaryHits != 1 {
		t.Fatalf("secondary counters wrong: %+v", s)
	}
	if s.Writebacks != 1 {
		t.Fatalf("writebacks wrong: %+v", s)
	}
	if s.MissRate() != 0.5 || s.HitRate() != 0.5 {
		t.Fatalf("rates wrong: miss=%v hit=%v", s.MissRate(), s.HitRate())
	}
}

func TestStatsEmptyRates(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 || s.HitRate() != 0 {
		t.Fatal("empty stats must report zero rates")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestRNGSeedsIndependent(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds produced %d identical draws", same)
	}
}

func TestRNGZeroValueUsable(t *testing.T) {
	var r RNG
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero-value RNG stuck at zero")
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(7)
	for n := 1; n <= 33; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestRNGOneInFrequency(t *testing.T) {
	// OneIn(8) should fire roughly 1/8 of the time; this mirrors the 1/2^n
	// probabilistic decrement STEM uses (n=3).
	r := NewRNG(1234)
	const trials = 200000
	hits := 0
	for i := 0; i < trials; i++ {
		if r.OneIn(8) {
			hits++
		}
	}
	got := float64(hits) / trials
	if got < 0.115 || got > 0.135 {
		t.Fatalf("OneIn(8) frequency %v, want ~0.125", got)
	}
}

func TestRNGBernoulli(t *testing.T) {
	r := NewRNG(5)
	if r.Bernoulli(0) {
		t.Fatal("Bernoulli(0) fired")
	}
	if !r.Bernoulli(1) {
		t.Fatal("Bernoulli(1) did not fire")
	}
	const trials = 100000
	hits := 0
	for i := 0; i < trials; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	got := float64(hits) / trials
	if got < 0.28 || got > 0.32 {
		t.Fatalf("Bernoulli(0.3) frequency %v", got)
	}
}

func TestRNGUniformity(t *testing.T) {
	// Chi-square-ish sanity over 16 buckets.
	r := NewRNG(99)
	const trials = 160000
	var buckets [16]int
	for i := 0; i < trials; i++ {
		buckets[r.Intn(16)]++
	}
	want := trials / 16
	for b, n := range buckets {
		if n < want*9/10 || n > want*11/10 {
			t.Fatalf("bucket %d count %d deviates >10%% from %d", b, n, want)
		}
	}
}

func TestLog2(t *testing.T) {
	// floor(log2 v), and 0 below 1: what the shift loop it replaces returned.
	for v, want := range map[int]int{
		-8: 0, -1: 0, 0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2, 7: 2, 8: 3, 63: 5, 64: 6, 65: 6,
		2048: 11, 2049: 11, 1<<20 - 1: 19, 1 << 20: 20, 1<<62 + 1: 62,
	} {
		if got := log2(v); got != want {
			t.Errorf("log2(%d) = %d, want %d", v, got, want)
		}
	}
}
