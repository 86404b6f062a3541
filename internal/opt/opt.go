// Package opt implements Belady's optimal replacement algorithm (MIN) as an
// offline oracle. The paper frames every hardware policy as an
// approximation of Belady (§2.2); this package provides the exact bound for
// a recorded trace, which the test suite uses to sanity-check the
// *set-constrained* schemes: no per-set policy (LRU, DIP, PeLIFO) can miss
// less than OPT on the same trace, while the spatial schemes (V-Way, SBC,
// STEM) legitimately can, because they share capacity across sets — that
// gap is precisely the headroom the paper's spatial dimension exploits.
//
// The implementation is the standard two-pass algorithm: a backward pass
// records each reference's next-use position, then a forward per-set
// simulation evicts the resident block whose next use lies farthest in the
// future (or never comes).
package opt

import (
	"container/heap"
	"fmt"

	"repro/internal/sim"
)

// infinity marks a block that is never referenced again.
const infinity = int(^uint(0) >> 1)

// Simulate runs Belady's MIN over the block-address trace for the given
// geometry and returns hit/miss statistics. Writes are irrelevant to MIN
// and ignored. It panics on invalid geometry.
func Simulate(geom sim.Geometry, blocks []uint64) sim.Stats {
	if err := geom.Validate(); err != nil {
		// invariant: geometry comes from the experiment harness, which validates it before constructing schemes.
		panic(fmt.Sprintf("opt: %v", err))
	}

	// Backward pass: nextUse[i] = index of the next reference to blocks[i],
	// or infinity.
	nextUse := make([]int, len(blocks))
	last := make(map[uint64]int, 1024)
	for i := len(blocks) - 1; i >= 0; i-- {
		if j, ok := last[blocks[i]]; ok {
			nextUse[i] = j
		} else {
			nextUse[i] = infinity
		}
		last[blocks[i]] = i
	}

	// Forward pass: per set, a residency map plus a max-heap on next use.
	sets := make([]optSet, geom.Sets)
	for i := range sets {
		sets[i].resident = make(map[uint64]int, geom.Ways)
	}
	var stats sim.Stats
	for i, b := range blocks {
		s := &sets[geom.Index(b)]
		var out sim.Outcome
		if _, ok := s.resident[b]; ok {
			out.Hit = true
			s.resident[b] = nextUse[i]
			heap.Push(&s.queue, entry{block: b, next: nextUse[i]})
		} else {
			if len(s.resident) >= geom.Ways {
				s.evictFarthest()
			}
			s.resident[b] = nextUse[i]
			heap.Push(&s.queue, entry{block: b, next: nextUse[i]})
		}
		stats.Record(out)
	}
	return stats
}

type entry struct {
	block uint64
	next  int
}

// queue is a max-heap on next-use position. Stale entries (whose next-use
// no longer matches the residency map) are skipped lazily on pop.
type queue []entry

func (q queue) Len() int            { return len(q) }
func (q queue) Less(i, j int) bool  { return q[i].next > q[j].next }
func (q queue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *queue) Push(x interface{}) { *q = append(*q, x.(entry)) }
func (q *queue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

type optSet struct {
	resident map[uint64]int // block -> next use
	queue    queue
}

// evictFarthest removes the resident block whose next use is farthest.
func (s *optSet) evictFarthest() {
	for s.queue.Len() > 0 {
		e := heap.Pop(&s.queue).(entry)
		if next, ok := s.resident[e.block]; ok && next == e.next {
			delete(s.resident, e.block)
			return
		}
		// Stale heap entry (block re-referenced or already evicted): skip.
	}
	// invariant: an eviction is only requested for a full set, whose heap must hold at least one live entry.
	panic("opt: eviction requested from an empty set")
}
