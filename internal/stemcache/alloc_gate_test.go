//go:build !race

// The race detector instruments allocations, so the hard ==0 assertion
// only holds in a plain build: `go test ./...` runs this file, `go test -race`
// does not, and CI runs the gate as its own non-race step.

package stemcache

import (
	"fmt"
	"testing"
)

const benchReadKeys = 1 << 10

// benchReadCache returns a cache warmed with benchReadKeys resident string
// keys, plus the key list used to populate it.
func benchReadCache(tb testing.TB) (*Cache[string, []byte], []string) {
	tb.Helper()
	c, err := New[string, []byte](Config{Capacity: 1 << 15, Shards: 16, Ways: 8, Seed: 42})
	if err != nil {
		tb.Fatal(err)
	}
	keys := make([]string, benchReadKeys)
	val := make([]byte, 128)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench:key:%04d", i)
		c.Set(keys[i], val)
	}
	return c, keys
}

// TestHotPathZeroAllocs is the allocation gate for the shard-read path: Get
// on a warm string-keyed cache must not allocate.
// Hits and shadow-registering misses are both measured — the miss path
// feeds the demand counters and must stay allocation-free too.
func TestHotPathZeroAllocs(t *testing.T) {
	c, keys := benchReadCache(t)
	i := 0
	hit := func() {
		c.Get(keys[i&(benchReadKeys-1)])
		i++
	}
	hit() // reach steady state before measuring
	if allocs := testing.AllocsPerRun(100, hit); allocs != 0 {
		t.Errorf("shard-read hit: %v allocs/op, want 0", allocs)
	}

	miss := func() { c.Get("bench:absent-key") }
	miss()
	if allocs := testing.AllocsPerRun(100, miss); allocs != 0 {
		t.Errorf("shard-read miss: %v allocs/op, want 0", allocs)
	}
}
