package policy

// Set dueling's constants: DIP's (Qureshi et al., ISCA 2007) 32 leader sets
// per flavour at the paper's 2048 sets and 10-bit PSEL. DRRIP and PeLIFO
// reuse them.
const (
	// duelSpan is the size of a constituency: one leader set of each flavour
	// per duelSpan sets, so Sets/64 leaders per flavour (one below 64 sets).
	duelSpan = 64
	// pselMax saturates the 10-bit policy-selector counter.
	pselMax = 1<<10 - 1
)

// Duel is set dueling between two insertion flavours, A and B. Each
// constituency holds one leader set that always runs A and one that always
// runs B. PSEL, a saturating counter that starts at its midpoint, goes up on
// an A-leader miss and down on a B-leader miss; every other set follows A
// while PSEL <= max/2 and B above it. DIP duels LRU with BIP, DRRIP SRRIP
// with BRRIP, and PeLIFO LRU with its fill-stack eviction.
type Duel struct {
	lead []int8 // per set: +1 an A leader, -1 a B leader, 0 a follower
	psel int
}

// NewDuel places the leader sets of a cache of sets sets. It panics below two
// sets, which leave no room for a leader of each flavour.
func NewDuel(sets int) *Duel {
	if sets < 2 {
		// invariant: experiments.NewScheme refuses a dueling scheme below two sets.
		panic("policy: more leader sets than cache sets")
	}
	d := &Duel{lead: make([]int8, sets), psel: (pselMax + 1) / 2}
	span := min(sets, duelSpan)
	for s := 0; s+span <= sets; s += span {
		d.lead[s], d.lead[s+span/2] = 1, -1
	}
	return d
}

// Miss counts a miss in set. A leader's miss moves PSEL toward the other
// flavour, saturating at 0 and 1023; a follower's does not count.
func (d *Duel) Miss(set int) { d.psel = min(max(d.psel+int(d.lead[set]), 0), pselMax) }

// B reports whether set inserts with flavour B: a leader with its own
// flavour, a follower with the current winner.
func (d *Duel) B(set int) bool {
	if l := d.lead[set]; l != 0 {
		return l < 0
	}
	return d.BWins()
}

// BWins reports whether the followers run flavour B, because A's leaders
// have missed more.
func (d *Duel) BWins() bool { return d.psel > pselMax/2 }

// Leader reports whether set is a leader, whose flavour never changes.
func (d *Duel) Leader(set int) bool { return d.lead[set] != 0 }

// PSEL returns the selector counter.
func (d *Duel) PSEL() int { return d.psel }
