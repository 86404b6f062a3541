// Package policy implements the per-set replacement-policy kernel shared by
// every cache scheme in this repository.
//
// A Policy ranks the ways of a single cache set. It sees three events — hit,
// insert, invalidate — and answers one question: which way to evict next.
// Policies never see addresses; the enclosing cache owns tags and validity
// and consults the policy only when it must choose a victim among fully
// occupied ways.
//
// The two policies that matter to STEM are LRU and BIP (Bimodal Insertion
// Policy, Qureshi et al. ISCA 2007): LRU favors recency on both hits and
// misses, while BIP inserts at the LRU position except with a small
// probability epsilon (1/32), which protects a working set larger than the
// associativity from thrashing. STEM swaps an individual set between the two
// (paper §4.4); DIP duels them cache-wide.
package policy

import (
	"fmt"

	"repro/internal/sim"
)

// Kind names a replacement policy. The zero value is LRU.
type Kind uint8

const (
	// LRU is least-recently-used: MRU insertion, MRU promotion on hit.
	LRU Kind = iota
	// BIP is the bimodal insertion policy: LRU insertion except with
	// probability epsilon (MRU), MRU promotion on hit.
	BIP
	// Dual is a recency policy whose insertion position is chosen per insert
	// by an external chooser; DIP's follower sets use it to track the PSEL
	// winner without reconstructing per-set state (see NewDual).
	Dual
)

// String returns the conventional short name of the policy.
func (k Kind) String() string {
	switch k {
	case LRU:
		return "LRU"
	case BIP:
		return "BIP"
	case Dual:
		return "Dual"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Opposite returns the policy STEM pairs a shadow set with (paper §4.3): a
// shadow set always runs the replacement policy opposite to its LLC set so
// the eviction stream reveals whichever temporal behaviour the LLC set is
// currently missing. Only LRU and BIP participate; other kinds map to LRU.
func Opposite(k Kind) Kind {
	if k == LRU {
		return BIP
	}
	return LRU
}

// BIPEpsilon is the probability BIP inserts at the MRU position, 1/32 as in
// Qureshi et al. (expressed as the denominator).
const BIPEpsilon = 32

// Policy ranks the ways of one cache set for replacement.
//
// Implementations track only ways that have been inserted and not
// invalidated ("present" ways). Victim must only be called while at least
// one way is present; the enclosing cache fills invalid ways directly and
// consults Victim only for a full set (or, for shadow sets, a set whose
// occupancy the policy itself tracks).
type Policy interface {
	// Kind identifies the policy for swapping and reporting.
	Kind() Kind
	// OnHit promotes way according to the policy's hit rule.
	OnHit(way int)
	// OnInsert adds way to the ranking at the policy's insertion position.
	// Inserting an already-present way reinserts it.
	OnInsert(way int)
	// OnInvalidate removes way from the ranking; no-op if absent.
	OnInvalidate(way int)
	// Victim returns the present way ranked for eviction, or -1 if no way is
	// present.
	Victim() int
	// Len returns the number of present ways.
	Len() int
	// Reset empties the ranking.
	Reset()
}

// New constructs an LRU or BIP policy over ways ways. The RNG drives BIP's
// insertion draw; LRU ignores it, but callers must still pass a non-nil RNG
// so swapping kinds in place never needs new state. It panics if ways <= 0,
// rng is nil or k is neither LRU nor BIP.
func New(k Kind, ways int, rng *sim.RNG) Policy {
	if ways <= 0 {
		// invariant: documented precondition of this internal constructor; the experiment harness and tests always satisfy it.
		panic("policy: ways must be positive")
	}
	if rng == nil {
		// invariant: documented precondition of this internal constructor; the experiment harness and tests always satisfy it.
		panic("policy: nil RNG")
	}
	switch k {
	case LRU:
		return newRecency(LRU, ways, rng)
	case BIP:
		return newRecency(BIP, ways, rng)
	default:
		// invariant: Kind is a closed enum; an unknown value is memory corruption or a missed switch arm.
		panic(fmt.Sprintf("policy: unknown kind %v", k))
	}
}

// SwapKind switches a recency-based policy (LRU or BIP) to kind k in place,
// preserving the recency ranking — the hardware analogue is flipping the
// set's insertion-mode bit without touching the rank fields, which is what
// STEM's temporal counter does on saturation (paper §4.4). It reports false
// if p is not a swappable recency policy or k is not LRU/BIP.
func SwapKind(p Policy, k Kind) bool {
	r, ok := p.(*Recency)
	if !ok || r.chooser != nil {
		return false
	}
	if k != LRU && k != BIP {
		return false
	}
	r.kind = k
	return true
}

// NewDual constructs a recency policy whose insertion rule is re-evaluated
// on every insert by calling choose, which must return LRU or BIP. Hits
// always promote to MRU. DIP's follower sets are Dual policies whose chooser
// reads the cache-wide PSEL counter. It panics on invalid arguments.
func NewDual(ways int, rng *sim.RNG, choose func() Kind) Policy {
	if ways <= 0 {
		// invariant: documented precondition of this internal constructor; the experiment harness and tests always satisfy it.
		panic("policy: ways must be positive")
	}
	if choose == nil {
		// invariant: documented precondition of this internal constructor; the experiment harness and tests always satisfy it.
		panic("policy: nil chooser")
	}
	r := newRecency(Dual, ways, rng)
	r.chooser = choose
	return r
}
