package policy

import "repro/internal/sim"

// Link is one way's cell of a recency list: its neighbours toward MRU and
// toward LRU. A caller that owns the storage (core.Engine's slab) allocates
// Links and hands them to every List method; the fields are the list's alone.
type Link struct{ prev, next int16 }

const (
	none   = -1 // a link past either end; head and tail of an empty list
	absent = -2 // prev of a way that is not ranked
)

// List is a storage-free LRU/BIP recency list: its ends, its length and its
// insertion rule, 8 bytes. The per-way cells live in the caller's []Link,
// passed to every method that reads or writes them, and the RNG that BIP's
// insertion draws from is passed to Insert and InsertAs; one list must
// always be handed the same links. head is the MRU end, tail the LRU end.
// Both rules promote to MRU on hits; they differ only in the insertion
// position: LRU always inserts MRU, BIP inserts LRU except one insertion in
// BIPEpsilon, which lands MRU. core.Engine keeps one per set and one per
// shadow set.
type List struct {
	head, tail, n int16 // MRU way, LRU way (none if empty), ranked ways
	kind          Kind
}

// MakeList builds an empty LRU or BIP list over links, which it resets. It
// panics on more than sim.MaxWays links.
func MakeList(kind Kind, links []Link) List {
	if len(links) > sim.MaxWays {
		// invariant: Geometry.Validate and stemcache's Config.Validate refuse wider sets before any policy is built.
		panic("policy: more ways than a recency link can index")
	}
	l := List{kind: kind}
	l.Reset(links)
	return l
}

// Kind returns the list's insertion rule.
func (l *List) Kind() Kind { return l.kind }

// Swap switches an LRU or BIP list to k, LRU or BIP, in place, keeping its
// ranking — the hardware analogue is flipping the set's insertion-mode bit
// without touching the rank fields. It reports false, and changes nothing,
// for any other kind on either side.
func (l *List) Swap(k Kind) bool {
	if (l.kind != LRU && l.kind != BIP) || (k != LRU && k != BIP) {
		return false
	}
	l.kind = k
	return true
}

// Len returns the number of ranked ways.
func (l *List) Len() int { return int(l.n) }

// Victim returns the LRU way, or -1 when nothing is ranked.
func (l *List) Victim() int { return int(l.tail) }

// Reset empties the list: every way becomes unranked.
func (l *List) Reset(links []Link) {
	for i := range links {
		links[i].prev = absent
	}
	l.head, l.tail, l.n = none, none, 0
}

// unlink takes a ranked way out of the list; its own cell is left for the
// caller to relink or mark absent.
func (l *List) unlink(links []Link, way int) {
	c := links[way]
	if c.prev >= 0 {
		links[c.prev].next = c.next
	} else {
		l.head = c.next
	}
	if c.next >= 0 {
		links[c.next].prev = c.prev
	} else {
		l.tail = c.prev
	}
}

func (l *List) linkHead(links []Link, way int) {
	links[way] = Link{prev: none, next: l.head}
	if l.head >= 0 {
		links[l.head].prev = int16(way)
	} else {
		l.tail = int16(way)
	}
	l.head = int16(way)
}

func (l *List) linkTail(links []Link, way int) {
	links[way] = Link{prev: l.tail, next: none}
	if l.tail >= 0 {
		links[l.tail].next = int16(way)
	} else {
		l.head = int16(way)
	}
	l.tail = int16(way)
}

// take unlinks way if it is ranked and counts it in if it is not, leaving
// its cell to be linked at either end.
func (l *List) take(links []Link, way int) {
	if links[way].prev == absent {
		l.n++
	} else {
		l.unlink(links, way)
	}
}

// Hit promotes way to MRU, ranking it first if it was unranked.
func (l *List) Hit(links []Link, way int) {
	if int(l.head) == way {
		return // already MRU
	}
	// Tolerate hits on unranked ways (a fresh insert races only in misuse);
	// take ranks them as an insert at MRU.
	l.take(links, way)
	l.linkHead(links, way)
}

// Insert ranks a filled way under the list's own rule.
func (l *List) Insert(links []Link, way int, rng *sim.RNG) { l.InsertAs(links, way, l.kind, rng) }

// InsertAs ranks a filled way under rule k, LRU or BIP, whatever the list's
// own rule: at MRU under LRU, at LRU under BIP except one insertion in
// BIPEpsilon, which is the only draw from rng.
func (l *List) InsertAs(links []Link, way int, k Kind, rng *sim.RNG) {
	l.take(links, way)
	if k == BIP && !rng.OneIn(BIPEpsilon) {
		l.linkTail(links, way)
		return
	}
	l.linkHead(links, way)
}

// Invalidate unranks way; an unranked way is left alone.
func (l *List) Invalidate(links []Link, way int) {
	if links[way].prev == absent {
		return
	}
	l.unlink(links, way)
	links[way].prev = absent
	l.n--
}

// Order returns the ways from MRU to LRU.
func (l *List) Order(links []Link) []int {
	out := make([]int, 0, l.n)
	for w := l.head; w >= 0; w = links[w].next {
		out = append(out, int(w))
	}
	return out
}

// Recency is a List that owns its links and RNG: the Policy behind New's LRU
// and BIP and NewDual's recency followers, and so behind basecache's sets.
type Recency struct {
	list  List
	links []Link // one cell per way
	rng   *sim.RNG
	// chooser, when non-nil, picks the insertion rule per insert (Dual).
	chooser func() Kind
}

func newRecency(kind Kind, ways int, rng *sim.RNG) *Recency {
	links := make([]Link, ways)
	return &Recency{list: MakeList(kind, links), links: links, rng: rng}
}

// Kind returns the list's insertion rule: LRU, BIP or Dual.
func (r *Recency) Kind() Kind { return r.list.kind }

// Len returns the number of ranked ways.
func (r *Recency) Len() int { return r.list.Len() }

// Reset empties the list: every way becomes unranked.
func (r *Recency) Reset() { r.list.Reset(r.links) }

// OnHit promotes way to MRU, ranking it first if it was unranked.
func (r *Recency) OnHit(way int) { r.list.Hit(r.links, way) }

// OnInsert ranks a filled way: at MRU under LRU, at LRU under BIP except
// one insertion in BIPEpsilon; a Dual asks its chooser which of the two.
func (r *Recency) OnInsert(way int) {
	k := r.list.kind
	if r.chooser != nil {
		k = r.chooser()
	}
	r.list.InsertAs(r.links, way, k, r.rng)
}

// OnInvalidate unranks way; an unranked way is left alone.
func (r *Recency) OnInvalidate(way int) { r.list.Invalidate(r.links, way) }

// Victim returns the LRU way, or -1 when nothing is ranked.
func (r *Recency) Victim() int { return r.list.Victim() }

// RecencyOrder returns the ways from MRU to LRU; used by tests and by the
// capacity-demand profiler to validate stack behaviour.
func (r *Recency) RecencyOrder() []int { return r.list.Order(r.links) }
