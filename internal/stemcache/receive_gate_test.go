//go:build !race

// A count gate: 42 runs of 800k operations, which the race detector would
// slow past the package's timeout. CI runs it plain, with the allocation
// and count gates.

package stemcache

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

// receiveCell is one cell of the receive-rank matrix: a serving key stream,
// a seed (the cache's and the stream's) and a count of interleaved workers,
// with the hits STEM and the sharded LRU score on it, pinned.
type receiveCell struct {
	dist      string
	seed      uint64
	workers   int
	stem, lru uint64
}

// receiveMatrix pins every cell's hits at 800k cache-aside operations into
// 8192 entries. headHits are STEM's hits per stream and worker count summed
// over the seeds when a received entry went in at the giver's MRU end (the
// paper's §4.6 rank); the library must score no fewer.
var (
	receiveMatrix = []receiveCell{
		{"zipf", 11, 1, 586575, 586768}, {"zipf", 101, 1, 586609, 586835}, {"zipf", 7, 1, 587541, 587608},
		{"zipf", 11, 2, 586007, 586146}, {"zipf", 101, 2, 587065, 587199}, {"zipf", 7, 2, 586635, 586822},
		{"mixed", 11, 1, 483046, 364875}, {"mixed", 101, 1, 481615, 364411}, {"mixed", 7, 1, 480819, 363715},
		{"mixed", 11, 2, 482024, 363613}, {"mixed", 101, 2, 482240, 363846}, {"mixed", 7, 2, 481327, 364178},
		{"scan", 11, 1, 333265, 765}, {"scan", 101, 1, 334422, 0}, {"scan", 7, 1, 331529, 765},
		{"scan", 11, 2, 332583, 767}, {"scan", 101, 2, 335266, 0}, {"scan", 7, 2, 331380, 768},
	}
	headHits = map[string]uint64{
		"zipf/1w": 1745153, "zipf/2w": 1745378,
		"mixed/1w": 1444384, "mixed/2w": 1444849,
		"scan/1w": 994817, "scan/2w": 991137,
	}
)

// runAside drives ops cache-aside operations (Get, then Set on a miss) of
// dist through c, the workers' streams interleaved one key each in turn,
// and returns c's hits. Worker w draws with seed+w, as the benchmark's and
// stemload's workers do.
func runAside(t *testing.T, c *Cache[string, int], dist string, seed uint64, workers, ops int) uint64 {
	t.Helper()
	next := make([]func() string, workers)
	for w := range next {
		var err error
		if next[w], err = workloads.NewWorkerKeyStream(dist, c.Capacity(), seed+uint64(w), w, workers); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < ops; i++ {
		k := next[i%workers]()
		if _, ok := c.Get(k); !ok {
			c.Set(k, i)
		}
	}
	return c.Stats().Hits
}

// withoutCoupling rebuilds c's engines with the spatial dimension off, every
// other parameter kept: the temporal-only cache.
func withoutCoupling(c *Cache[string, int]) *Cache[string, int] {
	cfg := c.cfg.engine()
	cfg.DisableCoupling = true
	for i := range c.shards {
		c.shards[i].eng = core.NewEngine(cfg, c.sets, c.cfg.Ways, i)
	}
	return c
}

// TestReceiveRankMatchesLRUOnZipf holds the library's receive rule: a
// spilled entry enters its giver at BIP rank, not at MRU. On zipf keys the
// giver a hashed key spills to is noise, and a spilled victim at MRU pushed
// the giver's live entries out: STEM hit 0.6–0.7 points below the sharded
// LRU in every cell. So zipf STEM must hit no more than 0.05 points below
// LRU in any cell, each stream's STEM hits summed over the seeds must not
// fall below the MRU rank's, and on the scan, which LRU cannot hit at all,
// STEM must keep its lead over the temporal-only cache in every cell. Every
// cell's hits are pinned.
func TestReceiveRankMatchesLRUOnZipf(t *testing.T) {
	const capacity, ops = 8192, 800_000
	stemSum := map[string]uint64{}
	for _, cell := range receiveMatrix {
		name := fmt.Sprintf("%s/seed%d/%dw", cell.dist, cell.seed, cell.workers)
		cfg := Config{Capacity: capacity, Seed: cell.seed}
		stem := runAside(t, mustNew[string, int](cfg), cell.dist, cell.seed, cell.workers, ops)
		lru := runAside(t, mustLRU[string, int](cfg), cell.dist, cell.seed, cell.workers, ops)
		t.Logf("%s: STEM %d (%.4f), LRU %d (%.4f)", name, stem, float64(stem)/ops, lru, float64(lru)/ops)
		stemSum[fmt.Sprintf("%s/%dw", cell.dist, cell.workers)] += stem
		switch cell.dist {
		case "zipf":
			if gap := (float64(lru) - float64(stem)) / ops; gap > 0.0005 {
				t.Errorf("%s: STEM hit rate %.4f is %.4f below LRU's %.4f, more than 0.0005",
					name, float64(stem)/ops, gap, float64(lru)/ops)
			}
		case "scan":
			off := runAside(t, withoutCoupling(mustNew[string, int](cfg)), cell.dist, cell.seed, cell.workers, ops)
			t.Logf("%s: coupling off %d (%.4f)", name, off, float64(off)/ops)
			if stem <= off {
				t.Errorf("%s: STEM %d hits, not above coupling off's %d", name, stem, off)
			}
		}
		if stem != cell.stem || lru != cell.lru {
			t.Errorf("%s: STEM %d and LRU %d hits, want %d and %d", name, stem, lru, cell.stem, cell.lru)
		}
	}
	for k, sum := range stemSum {
		if sum < headHits[k] {
			t.Errorf("%s: STEM %d hits over the seeds, below the MRU rank's %d", k, sum, headHits[k])
		}
	}
}
