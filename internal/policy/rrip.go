package policy

import "repro/internal/sim"

// RRIP kinds extend the kernel with the Re-Reference Interval Prediction
// family (Jaleel, Theobald, Steely, Emer — ISCA 2010), the generation of
// temporal policies that immediately followed the STEM paper. They are not
// part of the paper's evaluation; the repository includes them as the
// natural extension experiment ("would STEM's set-level adaptation still
// pay against stronger temporal baselines?"). New builds them, and
// dip.NewDRRIP duels them.
const (
	// SRRIP is static RRIP: 2-bit re-reference prediction values (RRPV),
	// inserts at "long" (RRPV max-1), promotes to "near-immediate" (0) on
	// hits, evicts the first way predicted "distant" (RRPV max), aging
	// everyone when none is.
	SRRIP Kind = iota + 16
	// BRRIP is bimodal RRIP: like SRRIP but inserts at "distant" except one
	// insertion in BIPEpsilon, which protects against thrash the way BIP
	// does for LRU.
	BRRIP
)

// rripMax is the saturated RRPV for 2-bit counters.
const rripMax = 3

// rrip implements SRRIP/BRRIP; chooser, when non-nil, picks the insertion
// flavour per insert (a DRRIP follower, see NewDual).
type rrip struct {
	kind    Kind
	chooser func() Kind
	rng     *sim.RNG
	rrpv    []int
	present []bool
	n       int
	hand    int // rotating scan start, breaks ties like hardware would
}

func (p *rrip) Kind() Kind { return p.kind }
func (p *rrip) Len() int   { return p.n }

func (p *rrip) Reset() {
	for i := range p.rrpv {
		p.rrpv[i] = 0
		p.present[i] = false
	}
	p.n, p.hand = 0, 0
}

func (p *rrip) OnHit(way int) {
	if !p.present[way] {
		p.present[way] = true
		p.n++
	}
	p.rrpv[way] = 0
}

func (p *rrip) OnInsert(way int) {
	if !p.present[way] {
		p.present[way] = true
		p.n++
	}
	k := p.kind
	if p.chooser != nil {
		k = p.chooser()
	}
	switch {
	case k == BRRIP && !p.rng.OneIn(BIPEpsilon):
		p.rrpv[way] = rripMax
	default:
		p.rrpv[way] = rripMax - 1
	}
}

func (p *rrip) OnInvalidate(way int) {
	if !p.present[way] {
		return
	}
	p.present[way] = false
	p.n--
}

func (p *rrip) Victim() int {
	if p.n == 0 {
		return -1
	}
	ways := len(p.rrpv)
	for {
		for i := 0; i < ways; i++ {
			w := (p.hand + i) % ways
			if p.present[w] && p.rrpv[w] == rripMax {
				p.hand = (w + 1) % ways
				return w
			}
		}
		// Nobody is predicted distant: age everyone and rescan.
		for w := range p.rrpv {
			if p.present[w] && p.rrpv[w] < rripMax {
				p.rrpv[w]++
			}
		}
	}
}
