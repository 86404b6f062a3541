//go:build !race

// The race detector instruments allocations, so the hard ==0 assertion
// only holds in a plain build: `go test ./...` runs this file, `go test -race`
// does not, and CI runs the gate as its own non-race step.

package workloads

import "testing"

// TestKeyStreamZeroAllocs is the allocation gate for key generation: once a
// stream has drawn its keyspace, a draw returns the string it rendered on
// that key's first draw and allocates nothing. stemload's timed loop draws a
// key before every request, so this is an allocation it no longer pays.
func TestKeyStreamZeroAllocs(t *testing.T) {
	const capacity = 64
	gate := func(name string, warm int, next func()) {
		t.Helper()
		for i := 0; i < warm; i++ {
			next()
		}
		if allocs := testing.AllocsPerRun(1000, next); allocs != 0 {
			t.Errorf("%s: %v allocs/draw, want 0", name, allocs)
		}
	}
	for _, dist := range []string{"zipf", "scan", "mixed"} {
		next, err := NewKeyStream(dist, capacity, 0x57E4)
		if err != nil {
			t.Fatal(err)
		}
		// 100 laps of the largest keyspace (zipf's, 8x capacity).
		gate(dist, 100*8*capacity, func() { next() })
	}

	// Within one partition: warm-up plus AllocsPerRun's 1001 calls end 100
	// draws before the first shift renders a fresh prefix.
	const big = 1024
	shift, err := NewKeyStream("hotspot-shift", big, 0x57E4)
	if err != nil {
		t.Fatal(err)
	}
	gate("hotspot-shift", HotspotShiftEvery(big)-1001-100, func() { shift() })
}
