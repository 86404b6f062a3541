package workloads

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/sim"
)

// Serving-load key streams. Where Suite describes the paper's trace-level
// analogs (set-indexed cache block addresses), these generate *cache keys*
// for driving a key-value service: cmd/stemload points them at stemd and
// measures hit rates end to end. The shapes mirror the stemcache package's
// benchmark streams so the service-level numbers are comparable to the
// in-process ones:
//
//   - "zipf": a skewed stream over a keyspace 8x the cache's capacity —
//     the classic cacheable web workload.
//   - "scan": a relentless sequential sweep over twice the capacity — the
//     LRU-worst-case loop nothing fits.
//   - "mixed": 50/50 interleave of a Zipfian hot set (capacity/4 keys,
//     disjoint from the scan range) with the scan — the access mix set-level
//     BIP dueling is built for, where STEM should beat a sharded LRU.
//
// Streams are deterministic functions of their parameters: equal parameters
// give byte-identical key sequences, so a STEM server and a baseline server
// can be driven with exactly the same load.

//   - "hotspot-shift": a Zipfian hot set that jumps to a disjoint key
//     partition every HotspotShiftEvery(capacity) draws. Against a cluster,
//     each partition hashes to a different node mix, so the load (and the
//     capacity demand it induces) migrates between nodes mid-run — the
//     skew node-level capacity management would have to follow.

// KeyDists lists the serving key distributions NewKeyStream accepts.
func KeyDists() []string { return []string{"zipf", "scan", "mixed", "hotspot-shift"} }

// HotspotShiftEvery is the partition dwell time of the "hotspot-shift"
// stream, in draws per worker: long enough for a cache sized near capacity
// to converge on the hot set, short enough that a run of a few multiples
// sees several shifts.
func HotspotShiftEvery(capacity int) int { return capacity * 6 }

// NewKeyStream returns a deterministic key generator for a single worker
// driving a cache of the given entry capacity: NewWorkerKeyStream with the
// whole keyspace as one partition.
func NewKeyStream(dist string, capacity int, seed uint64) (func() string, error) {
	return NewWorkerKeyStream(dist, capacity, seed, 0, 1)
}

// NewWorkerKeyStream returns worker w's deterministic key generator out of a
// group of `workers` concurrent closed loops (0 <= w < workers). The Zipfian
// keyspaces are shared — every worker hammers the same hot keys, as
// concurrent clients of one cache do — but the sequential scan range is
// partitioned: worker w sweeps only its 1/workers slice. Without the
// partition, W workers sweeping the same range act as W staggered pointers
// whose inter-pointer gap (span/W keys) fits in the cache, quietly turning
// the thrash stream into a reusable one; partitioned, the aggregate is one
// coherent sweep and each scan key's reuse distance stays at the full span.
//
// Each worker must own its stream (the generator is not safe for concurrent
// use); give workers distinct seeds for independent Zipf draws.
func NewWorkerKeyStream(dist string, capacity int, seed uint64, w, workers int) (func() string, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("workloads: key stream needs a positive capacity, got %d", capacity)
	}
	if workers <= 0 || w < 0 || w >= workers {
		return nil, fmt.Errorf("workloads: worker %d of %d out of range", w, workers)
	}
	switch dist {
	case "zipf", "scan", "mixed":
		return keyStream(dist, capacity, seed, w, workers), nil
	case "hotspot-shift":
		// The hot set is deliberately close to (3/4 of) the stated capacity:
		// a single cache holding it entirely hits well, but the node of a
		// cluster that owns most of the current partition is pushed past its
		// share, and its sets' SC_S counters saturate.
		// Partitions are keyed by prefix ("hs<p>:<rank>") so successive hot
		// sets are disjoint and hash to fresh, uncorrelated ring positions.
		r := sim.NewRNG(seed)
		hot := max((capacity*3)/4, 1)
		z, memo := newZipf(hot), newKeyMemo("hs0:", 0, hot)
		every := HotspotShiftEvery(capacity)
		p, left := 0, every
		return func() string {
			if left == 0 {
				// The old partition is never drawn again: drop its keys.
				p, left = p+1, every
				memo.prefix = "hs" + strconv.Itoa(p) + ":"
				clear(memo.pages)
			}
			left--
			return memo.key(z.rank(r))
		}, nil
	default:
		return nil, fmt.Errorf("workloads: unknown key distribution %q (have %v)", dist, KeyDists())
	}
}

// keyStream builds worker w's "zipf", "scan" or "mixed" generator.
func keyStream(dist string, capacity int, seed uint64, w, workers int) func() string {
	r := sim.NewRNG(seed)
	switch dist {
	case "zipf":
		return zipfKeys(r, "z", capacity*8)
	case "scan":
		return newSweep(capacity*2, seed, w, workers)
	}
	// "mixed". The "h" prefix keeps the hot set disjoint from the scan range,
	// as the benchmark stream's 1<<30 offset does.
	hot, sweep := zipfKeys(r, "h", max(capacity/4, 1)), newSweep(capacity*2, seed, w, workers)
	return func() string {
		if r.OneIn(2) {
			return hot()
		}
		return sweep()
	}
}

// zipfKeys draws prefix+rank keys with Zipf-distributed ranks in [0, n).
func zipfKeys(r *sim.RNG, prefix string, n int) func() string {
	z, memo := newZipf(n), newKeyMemo(prefix, 0, n)
	return func() string { return memo.key(z.rank(r)) }
}

// newSweep builds worker w's sequential scan over its slice of the span,
// starting at a seed-derived phase within the slice.
func newSweep(span int, seed uint64, w, workers int) func() string {
	lo := w * span / workers
	hi := (w + 1) * span / workers
	width := max(hi-lo, 1)
	memo := newKeyMemo("s", lo, width)
	i := scanPhase(seed, width) - 1
	return func() string {
		if i++; i == width {
			i = 0
		}
		return memo.key(i)
	}
}

// scanPhase spreads a sweep's starting point over its range by seed, so
// restarts and distinct seeds do not all begin at the same key.
func scanPhase(seed uint64, width int) int {
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z ^= z >> 31
	return int(z % uint64(width))
}

// zipf draws approximately Zipf(1)-distributed ranks in [0, n): the
// log-uniform draw exp(u·ln n) the stemcache benchmarks use. ln n is computed
// once; a draw does the same floating-point operations in the same order as
// computing it inline would, so every rank is bit-identical. math.Exp stays
// per draw: a threshold table over u would be exact only if Exp were
// monotone to the last bit, which nothing guarantees.
type zipf struct {
	n    int
	logN float64 // ln n
}

func newZipf(n int) zipf { return zipf{n: n, logN: math.Log(float64(n))} }

func (z *zipf) rank(r *sim.RNG) int {
	x := math.Exp(r.Float64() * z.logN)
	return min(max(int(x)-1, 0), z.n-1)
}

// keyMemo renders a keyspace slot's key, prefix+Itoa(base+slot), on the
// slot's first draw and returns that same string on every later one. Pages
// of slots are allocated on first touch, so memory grows with the distinct
// keys drawn, not with the keyspace (an 8M-slot keyspace starts as a 256 KB
// page table).
type keyMemo struct {
	prefix string
	base   int
	pages  []*[memoPage]string
}

const memoPage = 256

func newKeyMemo(prefix string, base, n int) *keyMemo {
	return &keyMemo{prefix: prefix, base: base, pages: make([]*[memoPage]string, (n+memoPage-1)/memoPage)}
}

func (m *keyMemo) key(slot int) string {
	p := m.pages[slot/memoPage]
	if p == nil {
		p = new([memoPage]string)
		m.pages[slot/memoPage] = p
	}
	k := &p[slot%memoPage]
	if *k == "" {
		*k = m.prefix + strconv.Itoa(m.base+slot)
	}
	return *k
}
