// Package sim provides the shared primitives every cache model in this
// repository is built from: cache geometry and block addressing, the
// Simulator interface all management schemes implement, the per-access
// Outcome record consumed by the timing model, aggregate Stats, and a
// deterministic random-number stream.
//
// Addresses are byte addresses. A "block address" is the byte address with
// the line-offset bits stripped (addr >> log2(LineSize)). All schemes operate
// on block addresses; Geometry performs the index/tag split.
package sim

import (
	"fmt"
	"math/bits"
)

// MaxWays is the widest associativity any scheme models: per-set recency
// lists (internal/policy) link ways through 16-bit cells.
const MaxWays = 1<<15 - 1

// Geometry describes the physical organization of a set-associative cache.
type Geometry struct {
	// Sets is the number of cache sets; must be a power of two.
	Sets int
	// Ways is the associativity (cache lines per set).
	Ways int
	// LineSize is the cache-line size in bytes; must be a power of two.
	LineSize int
}

// Validate reports whether the geometry is well formed.
func (g Geometry) Validate() error {
	switch {
	case g.Sets <= 0 || g.Sets&(g.Sets-1) != 0:
		return fmt.Errorf("sim: Sets must be a positive power of two, got %d", g.Sets)
	case g.Ways <= 0 || g.Ways > MaxWays:
		return fmt.Errorf("sim: Ways must be in [1, %d], got %d", MaxWays, g.Ways)
	case g.LineSize <= 0 || g.LineSize&(g.LineSize-1) != 0:
		return fmt.Errorf("sim: LineSize must be a positive power of two, got %d", g.LineSize)
	}
	return nil
}

// CapacityBytes returns the total data capacity of the cache.
func (g Geometry) CapacityBytes() int { return g.Sets * g.Ways * g.LineSize }

// OffsetBits returns log2(LineSize).
func (g Geometry) OffsetBits() uint { return uint(log2(g.LineSize)) }

// IndexBits returns log2(Sets).
func (g Geometry) IndexBits() uint { return uint(log2(g.Sets)) }

// BlockAddr strips the line-offset bits from a byte address.
func (g Geometry) BlockAddr(addr uint64) uint64 { return addr >> g.OffsetBits() }

// Index returns the set index a block address maps to (MOD mapping, the
// conventional scheme described in paper §2.1).
func (g Geometry) Index(block uint64) int { return int(block & uint64(g.Sets-1)) }

// Tag returns the tag portion of a block address.
func (g Geometry) Tag(block uint64) uint64 { return block >> g.IndexBits() }

// BlockFor reconstructs a block address from a (tag, set index) pair. It is
// the inverse of the Index/Tag split and is the primitive workload generators
// use to aim references at specific sets.
func (g Geometry) BlockFor(tag uint64, set int) uint64 {
	return tag<<g.IndexBits() | uint64(set)
}

// log2 returns floor(log2(v)), and 0 for v < 1.
func log2(v int) int {
	if v < 1 {
		return 0
	}
	return bits.Len(uint(v)) - 1
}

// Access is a single reference presented to a cache.
type Access struct {
	// Block is the block address (byte address >> offset bits).
	Block uint64
	// Write marks stores; used only for dirty-bit accounting.
	Write bool
}

// Outcome describes what happened on one access, in enough detail for the
// timing model (internal/mem) to charge the latencies of paper §5.1.
type Outcome struct {
	// Hit is true if the block was found on chip (locally or cooperatively).
	Hit bool
	// Secondary is true if a second set was probed (SBC/STEM coupled sets).
	// A secondary probe costs an extra tag-store access whether or not it
	// hits.
	Secondary bool
	// SecondaryHit is true if the block was found in the partner set; implies
	// Hit && Secondary.
	SecondaryHit bool
	// Writeback is true if a dirty block was evicted off chip on this access.
	Writeback bool
}

// Simulator is the interface every LLC management scheme implements.
//
// Implementations are single-goroutine state machines: Access mutates
// internal state and is not safe for concurrent use. All schemes are
// deterministic given their construction seed.
type Simulator interface {
	// Name returns the scheme's short name (e.g. "LRU", "STEM").
	Name() string
	// Geometry returns the cache organization being simulated.
	Geometry() Geometry
	// Access presents one reference and returns what happened.
	Access(a Access) Outcome
	// Stats returns the aggregate counters accumulated so far.
	Stats() Stats
	// ResetStats zeroes the aggregate counters without disturbing cache
	// contents (used to discard warm-up).
	ResetStats()
}

// Stats aggregates the outcome counters every Simulator maintains.
type Stats struct {
	Accesses      uint64 // total references presented
	Hits          uint64 // references that hit on chip
	Misses        uint64 // references that went to memory
	SecondaryHits uint64 // hits served from a partner set (subset of Hits)
	SecondaryRefs uint64 // references that probed a partner set
	Writebacks    uint64 // dirty evictions
	Spills        uint64 // victims placed cooperatively instead of evicted
	Receives      uint64 // foreign blocks accepted by a giver set (== Spills)
	PolicySwaps   uint64 // set-level replacement-policy swaps (STEM)
	Couplings     uint64 // set pairs formed
	Decouplings   uint64 // set pairs dissolved
	ShadowHits    uint64 // misses whose signature hit the shadow directory (STEM)
}

// Record folds one outcome into the counters.
func (s *Stats) Record(o Outcome) {
	s.Accesses++
	if o.Hit {
		s.Hits++
	} else {
		s.Misses++
	}
	if o.Secondary {
		s.SecondaryRefs++
	}
	if o.SecondaryHit {
		s.SecondaryHits++
	}
	if o.Writeback {
		s.Writebacks++
	}
}

// MissRate returns Misses/Accesses, or 0 for an untouched cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// HitRate returns Hits/Accesses, or 0 for an untouched cache.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}
