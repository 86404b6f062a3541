package core

import (
	"math/bits"

	"repro/internal/policy"
	"repro/internal/sim"
)

// MaxSignatureBits is the widest shadow signature m: a shadow cell is 16
// bits, the signature below its top bit, which marks the cell valid. The
// paper's Table 3 sizes m at 10.
const MaxSignatureBits = 15

// Each LLC set has a shadow directory, the m-bit-signature victim
// directory of paper §4.3. It has the set's associativity, stores hashed
// tags of the set's victim blocks, and ranks them under the replacement
// policy opposite to the set's, so that the eviction stream exposes
// whichever temporal behaviour the set is currently missing. Entries are
// strictly exclusive with the set's resident blocks: an entry is
// invalidated the moment a block with a matching signature re-enters the
// set. Engine keeps one per set as a policy.List in the set's ctlSet over
// its links and cells in the engine-wide slabs; the list ranks exactly the
// valid ways.
//
// A shadow cell is cellValid | signature, or 0 when its way is empty. A
// set's cells are packed four to a 64-bit word, way 4i+k in bits 16k..16k+15
// of word i, so a lookup compares four ways per word (see zeroLanes). Lanes
// past the last way of a set whose associativity is not a multiple of four
// hold cellPad, which is neither empty nor valid: no lookup or insert ever
// matches or claims one.
const (
	cellValid = 1 << MaxSignatureBits
	cellPad   = cellValid - 1
	laneOnes  = 0x0001_0001_0001_0001 // a 1 in every lane; c*laneOnes repeats c
	laneHighs = 0x8000_8000_8000_8000 // every lane's top bit
)

// cellWords returns the number of words that hold ways cells.
func cellWords(ways int) int { return (ways + 3) / 4 }

// makeCells returns the empty cells of sets sets of ways ways, each set's
// words side by side, with every lane past a set's last way padded.
func makeCells(sets, ways int) []uint64 {
	n := cellWords(ways)
	words := make([]uint64, sets*n)
	if tail := ways % 4; tail != 0 {
		pad := uint64(0)
		for k := tail; k < 4; k++ {
			pad |= cellPad << (16 * k)
		}
		for i := n - 1; i < len(words); i += n {
			words[i] = pad
		}
	}
	return words
}

// cellOf is the cell that records sig: its low MaxSignatureBits bits, valid.
func cellOf(sig uint32) uint64 { return uint64(sig)&(cellValid-1) | cellValid }

// zeroLanes flags x's zero lanes: the lowest set bit of the result is the
// top bit of x's lowest zero lane, and the result is 0 when no lane is zero.
// (A borrow out of a zero lane can flag lanes above it too, never one below,
// so only the lowest flag is read.)
func zeroLanes(x uint64) uint64 { return (x - laneOnes) &^ x & laneHighs }

// firstLane returns the way that zeroLanes' nonzero mask m flags first in
// word i.
func firstLane(i int, m uint64) int { return 4*i + bits.TrailingZeros64(m)>>4 }

// shadowLookup checks a shadow set — its cells, its links and its list —
// for sig and, on a match, invalidates the entry (the block is about to
// re-enter the LLC set) and reports the hit.
func shadowLookup(words []uint64, links []policy.Link, l *policy.List, sig uint32) bool {
	want := cellOf(sig) * laneOnes
	for i, x := range words {
		if m := zeroLanes(x ^ want); m != 0 {
			w := firstLane(i, m)
			words[i] = x &^ (0xFFFF << (16 * (w & 3)))
			l.Invalidate(links, w)
			return true
		}
	}
	return false
}

// shadowInsert records sig in a shadow set: a valid cell holding sig is
// refreshed in place to keep entries unique, else the first empty way takes
// it, else the list's victim; rng drives a BIP list's insertion.
func shadowInsert(words []uint64, links []policy.Link, l *policy.List, sig uint32, rng *sim.RNG) {
	c := cellOf(sig)
	want, way := c*laneOnes, -1
	for i, x := range words {
		if m := zeroLanes(x ^ want); m != 0 {
			way = firstLane(i, m) // refresh ranking; entry already present
			break
		}
		if way < 0 {
			if m := zeroLanes(x); m != 0 {
				way = firstLane(i, m)
			}
		}
	}
	// way is the duplicate when the loop broke on one: a duplicate is found
	// wherever it sits, and an empty way before it is not taken.
	if way < 0 {
		way = l.Victim()
	}
	i, sh := way>>2, 16*(way&3)
	words[i] = words[i]&^(0xFFFF<<sh) | c<<sh
	l.Insert(links, way, rng)
}

// Monitor is the counter half of one set's slice of the Set-level Capacity
// Demand Monitor (SCDM, paper §4.2-4.4): the two k-bit saturating counters
// that its shadow set's hits and the LLC set's hits move.
//
//   - ScS (spatial): incremented on every shadow hit, decremented with
//     probability 1/2^n on every LLC-set hit. Saturated ⇒ the set is a
//     *taker* (doubling its capacity would raise its hit rate by at least
//     1/2^n); MSB clear ⇒ the set is a *giver*.
//   - ScT (temporal): incremented on every shadow hit, decremented on every
//     LLC-set hit. Saturated ⇒ the shadow's (opposite) policy is measurably
//     beating the set's current policy, so the two swap and ScT resets.
type Monitor struct {
	ScS int
	ScT int
}

// CounterGeom carries the ceiling and MSB mask derived from the configured
// counter width k.
type CounterGeom struct {
	Max int // 2^k - 1
	MSB int // 2^(k-1)
}

// NewCounterGeom derives the counter geometry for k-bit saturating counters.
func NewCounterGeom(k int) CounterGeom {
	return CounterGeom{Max: 1<<uint(k) - 1, MSB: 1 << uint(k-1)}
}

// OnShadowHit applies the shadow-hit counter rule and reports whether ScT
// saturated (the caller then swaps policies and resets ScT).
func (m *Monitor) OnShadowHit(g CounterGeom) (swapNeeded bool) {
	if m.ScS < g.Max {
		m.ScS++
	}
	if m.ScT < g.Max {
		m.ScT++
	}
	return m.ScT == g.Max
}

// OnLLCHit applies the LLC-hit counter rule; decS tells whether the 1/2^n
// probabilistic event fired for the spatial counter.
func (m *Monitor) OnLLCHit(decS bool) {
	if m.ScT > 0 {
		m.ScT--
	}
	if decS && m.ScS > 0 {
		m.ScS--
	}
}

// IsTaker reports whether the set's spatial counter marks it as demanding
// extra capacity.
func (m *Monitor) IsTaker(g CounterGeom) bool { return m.ScS == g.Max }

// IsGiver reports whether the spatial counter's MSB is clear: the set hits
// frequently within its local capacity and can contribute space.
func (m *Monitor) IsGiver(g CounterGeom) bool { return m.ScS < g.MSB }
