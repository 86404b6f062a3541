package policy

import "repro/internal/sim"

// Link is one way's cell of a Recency list: its neighbours toward MRU and
// toward LRU. A caller that owns the storage (core.Engine's slab) allocates
// Links and hands a slice to MakeRecency; the fields are the list's alone.
type Link struct{ prev, next int16 }

const (
	none   = -1 // a link past either end; head and tail of an empty list
	absent = -2 // prev of a way that is not ranked
)

// Recency implements LRU and BIP over an intrusive doubly-linked recency
// list indexed by way number. head is the MRU end, tail the LRU end. Both
// policies promote to MRU on hits; they differ only in the insertion
// position: LRU always inserts MRU, BIP inserts LRU except one insertion in
// BIPEpsilon, which lands MRU. It is the one list behind New, NewDual and
// the by-value policies core.Engine keeps per set.
//
// The list ends and the kind come first: with the slice header after them
// they are the 32 bytes a hit reads, ahead of the insertion-only fields.
type Recency struct {
	head, tail, n int16 // MRU way, LRU way (none if empty), ranked ways
	kind          Kind
	links         []Link // one cell per way
	rng           *sim.RNG
	// chooser, when non-nil, picks the insertion rule per insert (Dual).
	chooser func() Kind
}

// MakeRecency builds an empty LRU or BIP list ranking len(links) ways in the
// caller's storage. It panics on more than sim.MaxWays links or a nil rng.
func MakeRecency(kind Kind, links []Link, rng *sim.RNG) Recency {
	if len(links) > sim.MaxWays {
		// invariant: Geometry.Validate and stemcache's Config.Validate refuse wider sets before any policy is built.
		panic("policy: more ways than a recency link can index")
	}
	if rng == nil {
		// invariant: documented precondition of this internal constructor; the experiment harness and tests always satisfy it.
		panic("policy: nil RNG")
	}
	r := Recency{kind: kind, links: links, rng: rng}
	r.Reset()
	return r
}

func newRecency(kind Kind, ways int, rng *sim.RNG) *Recency {
	r := MakeRecency(kind, make([]Link, ways), rng)
	return &r
}

// Kind returns the list's insertion rule, LRU or BIP.
func (r *Recency) Kind() Kind { return r.kind }

// Len returns the number of ranked ways.
func (r *Recency) Len() int { return int(r.n) }

// Reset empties the list: every way becomes unranked.
func (r *Recency) Reset() {
	for i := range r.links {
		r.links[i].prev = absent
	}
	r.head, r.tail, r.n = none, none, 0
}

// unlink takes a ranked way out of the list; its own cell is left for the
// caller to relink or mark absent.
func (r *Recency) unlink(way int) {
	l := r.links[way]
	if l.prev >= 0 {
		r.links[l.prev].next = l.next
	} else {
		r.head = l.next
	}
	if l.next >= 0 {
		r.links[l.next].prev = l.prev
	} else {
		r.tail = l.prev
	}
}

func (r *Recency) linkHead(way int) {
	r.links[way] = Link{prev: none, next: r.head}
	if r.head >= 0 {
		r.links[r.head].prev = int16(way)
	} else {
		r.tail = int16(way)
	}
	r.head = int16(way)
}

func (r *Recency) linkTail(way int) {
	r.links[way] = Link{prev: r.tail, next: none}
	if r.tail >= 0 {
		r.links[r.tail].next = int16(way)
	} else {
		r.head = int16(way)
	}
	r.tail = int16(way)
}

// OnHit promotes way to MRU, ranking it first if it was unranked.
func (r *Recency) OnHit(way int) {
	if int(r.head) == way {
		return // already MRU
	}
	if r.links[way].prev == absent {
		// Tolerate hits on unranked ways (a fresh insert races only in
		// misuse); rank them as an insert at MRU.
		r.n++
	} else {
		r.unlink(way)
	}
	r.linkHead(way)
}

// OnInsert ranks a filled way: at MRU under LRU, at LRU under BIP except
// one insertion in BIPEpsilon.
func (r *Recency) OnInsert(way int) {
	if r.links[way].prev == absent {
		r.n++
	} else {
		r.unlink(way)
	}
	k := r.kind
	if r.chooser != nil {
		k = r.chooser()
	}
	if k == BIP && !r.rng.OneIn(BIPEpsilon) {
		r.linkTail(way)
		return
	}
	r.linkHead(way)
}

// OnInvalidate unranks way; an unranked way is left alone.
func (r *Recency) OnInvalidate(way int) {
	if r.links[way].prev == absent {
		return
	}
	r.unlink(way)
	r.links[way].prev = absent
	r.n--
}

// Victim returns the LRU way, or -1 when nothing is ranked.
func (r *Recency) Victim() int { return int(r.tail) }

// RecencyOrder returns the ways from MRU to LRU; used by tests and by the
// capacity-demand profiler to validate stack behaviour.
func (r *Recency) RecencyOrder() []int {
	out := make([]int, 0, r.n)
	for w := r.head; w >= 0; w = r.links[w].next {
		out = append(out, int(w))
	}
	return out
}
