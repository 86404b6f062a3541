package workloads

import (
	"math"
	"strings"
	"testing"
)

func threeTenants() []TenantStream {
	return []TenantStream{
		{Name: "hot", Dist: "zipf", Capacity: 256, Skew: 1.2, Weight: 4, Seed: 1},
		{Name: "scan", Dist: "scan", Capacity: 512, Weight: 2, Seed: 2},
		{Name: "quiet", Dist: "mixed", Capacity: 64, Skew: 0.8, Weight: 1, Seed: 3},
	}
}

// TestTenantKeyStreamDeterminism: equal parameters give byte-identical
// (namespace, key) sequences.
func TestTenantKeyStreamDeterminism(t *testing.T) {
	a, err := NewTenantKeyStream(threeTenants(), 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTenantKeyStream(threeTenants(), 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		ns1, k1 := a()
		ns2, k2 := b()
		if ns1 != ns2 || k1 != k2 {
			t.Fatalf("draw %d diverged: (%s, %s) vs (%s, %s)", i, ns1, k1, ns2, k2)
		}
	}
	// A different interleave seed schedules differently.
	c, err := NewTenantKeyStream(threeTenants(), 43)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := 0; i < 1000; i++ {
		ns1, _ := a()
		ns2, _ := c()
		if ns1 == ns2 {
			same++
		}
	}
	if same == 1000 {
		t.Fatal("interleave seed had no effect on scheduling")
	}
}

// TestTenantKeyStreamPartition pins the independence property: tenant i's
// subsequence of the combined stream is a prefix of its solo stream, however
// the other tenants are weighted — the interleaver decides only *when* a
// tenant draws, never *what* it draws.
func TestTenantKeyStreamPartition(t *testing.T) {
	streams := threeTenants()
	combined, err := NewTenantKeyStream(streams, 42)
	if err != nil {
		t.Fatal(err)
	}
	byNS := map[string][]string{}
	for i := 0; i < 30_000; i++ {
		ns, k := combined()
		byNS[ns] = append(byNS[ns], k)
	}
	for _, ts := range streams {
		solo := ts.gen()
		got := byNS[ts.Name]
		if len(got) == 0 {
			t.Fatalf("tenant %q was never scheduled", ts.Name)
		}
		for i, k := range got {
			if want := solo(); k != want {
				t.Fatalf("tenant %q draw %d: combined saw %q, solo stream gives %q", ts.Name, i, k, want)
			}
		}
	}
	// Weighted scheduling roughly follows the 4:2:1 shares.
	if len(byNS["hot"]) < len(byNS["scan"]) || len(byNS["scan"]) < len(byNS["quiet"]) {
		t.Fatalf("weights not respected: hot=%d scan=%d quiet=%d",
			len(byNS["hot"]), len(byNS["scan"]), len(byNS["quiet"]))
	}
}

// TestTenantKeyStreamValidation: bad parameters come back as errors naming
// the offending stream, never panics.
func TestTenantKeyStreamValidation(t *testing.T) {
	cases := []struct {
		name    string
		streams []TenantStream
		frag    string
	}{
		{"empty", nil, "at least one"},
		{"unknown dist", []TenantStream{{Name: "a", Dist: "pareto", Capacity: 64}}, "unknown distribution"},
		{"cluster dist", []TenantStream{{Name: "a", Dist: "hotspot-shift", Capacity: 64}}, "unknown distribution"},
		{"zero capacity", []TenantStream{{Name: "a", Dist: "zipf"}}, "capacity"},
		{"nan skew", []TenantStream{{Name: "a", Dist: "zipf", Capacity: 64, Skew: math.NaN()}}, "skew"},
		{"negative skew", []TenantStream{{Name: "a", Dist: "zipf", Capacity: 64, Skew: -1}}, "skew"},
		{"inf weight", []TenantStream{{Name: "a", Dist: "zipf", Capacity: 64, Weight: math.Inf(1)}}, "weight"},
		{"negative weight", []TenantStream{{Name: "a", Dist: "zipf", Capacity: 64, Weight: -2}}, "weight"},
		{"duplicate namespace", []TenantStream{
			{Name: "a", Dist: "zipf", Capacity: 64},
			{Name: "a", Dist: "scan", Capacity: 64},
		}, "duplicate"},
	}
	for _, tc := range cases {
		if _, err := NewTenantKeyStream(tc.streams, 1); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.frag)
		}
	}
}

// TestZipfSkewShapesDistribution: a hotter skew concentrates mass on the top
// rank; the default (Skew zero-value → exponent 1) matches the fixed-skew
// stream exactly, for every tenant distribution at every capacity.
func TestZipfSkewShapesDistribution(t *testing.T) {
	top := func(skew float64) int {
		ts := TenantStream{Name: "t", Dist: "zipf", Capacity: 128, Skew: skew, Seed: 9}
		g := ts.gen()
		hits := 0
		for i := 0; i < 20_000; i++ {
			if g() == "z0" {
				hits++
			}
		}
		return hits
	}
	flat, hot := top(0.5), top(2.0)
	if hot <= flat {
		t.Fatalf("skew 2.0 hit rank 0 %d times, skew 0.5 %d — hotter skew should concentrate", hot, flat)
	}

	// At every capacity, including the ones whose "mixed" hot set is a
	// single key, and at 64.
	for _, dist := range TenantDists() {
		for _, c := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 64} {
			def := TenantStream{Name: "t", Dist: dist, Capacity: c, Seed: 5}.gen()
			fixed, err := NewKeyStream(dist, c, 5)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5_000; i++ {
				if got, want := def(), fixed(); got != want {
					t.Fatalf("%s capacity %d draw %d: default-skew tenant stream %q != fixed stream %q", dist, c, i, got, want)
				}
			}
		}
	}
}

func BenchmarkTenantKeyStream(b *testing.B) {
	next, err := NewTenantKeyStream(threeTenants(), 0x57E4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		next()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/key")
}
