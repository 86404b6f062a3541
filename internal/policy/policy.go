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
// (paper §4.4); DIP duels them cache-wide through a Duel, the one set-dueling
// selector (DRRIP and PeLIFO duel on it too).
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
	// Dual is a follower: a policy whose insertion flavour an external
	// chooser picks on every insert, so a dueling cache's follower sets track
	// the PSEL winner without reconstructing per-set state (see NewDual).
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

// New constructs a fixed-kind policy — LRU, BIP, SRRIP or BRRIP — over ways
// ways. The RNG drives BIP's and BRRIP's insertion draw; the others ignore
// it, but callers must still pass a non-nil RNG so swapping kinds in place
// never needs new state. It panics if ways <= 0, rng is nil or k is none of
// the four.
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
	case LRU, BIP:
		return newRecency(k, ways, rng)
	case SRRIP, BRRIP:
		return &rrip{kind: k, rng: rng, rrpv: make([]int, ways), present: make([]bool, ways)}
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
	return ok && r.list.Swap(k)
}

// NewDual constructs a follower whose insertion flavour is re-chosen on every
// insert by calling choose. Hits promote as the family does. choose's answer
// here picks the family — RRIP if it is SRRIP or BRRIP, else a recency list
// — and its later answers must stay in it (LRU or BIP for a recency list). A
// Duel's follower sets are Dual policies whose chooser reads its PSEL. It
// panics on invalid arguments.
func NewDual(ways int, rng *sim.RNG, choose func() Kind) Policy {
	if choose == nil {
		// invariant: documented precondition of this internal constructor; the experiment harness and tests always satisfy it.
		panic("policy: nil chooser")
	}
	family := LRU
	if k := choose(); k == SRRIP || k == BRRIP {
		family = SRRIP
	}
	p := New(family, ways, rng)
	switch p := p.(type) {
	case *Recency:
		p.list.kind, p.chooser = Dual, choose
	case *rrip:
		p.kind, p.chooser = Dual, choose
	}
	return p
}
