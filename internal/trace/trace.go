// Package trace defines the reference-stream model every experiment runs
// on, plus the synthetic access-pattern generators the workload suite is
// assembled from.
//
// A trace is a sequence of Refs — block-level LLC accesses annotated with
// the number of instructions the core retired up to and including each
// access. Generators synthesize the *post-L1* (LLC) reference stream
// directly; this is the substitution recorded in DESIGN.md §3: every scheme
// under study acts only on the LLC stream, and the paper's set-level
// phenomena (demand non-uniformity, temporal locality) are explicit
// parameters of the patterns here.
package trace

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Ref is one LLC reference.
type Ref struct {
	// Block is the block address.
	Block uint64
	// Write marks stores.
	Write bool
	// Instrs is the number of instructions retired since the previous
	// reference (inclusive of this one); MPKI denominators sum it.
	Instrs uint32
}

// Generator produces an unbounded reference stream. Implementations are
// deterministic given their construction parameters and seed.
type Generator interface {
	// Next returns the next reference.
	Next() Ref
}

// PatternKind names a per-set access pattern.
type PatternKind uint8

const (
	// Cyclic sweeps a fixed working set of N blocks round-robin: all-hit
	// when N ≤ associativity, a perfect LRU-thrasher when N exceeds it.
	Cyclic PatternKind = iota
	// Zipf draws from N blocks with Zipf(theta) popularity: strong recency
	// and a hot head — LRU-friendly at any capacity that holds the head.
	Zipf
	// Stream touches ever-new blocks and never reuses: zero capacity
	// demand, pure compulsory misses.
	Stream
	// Pairs emits x,y,x,y over a sliding window: every block's reuse is at
	// stack distance 2, so it is LRU-friendly and maximally BIP-hostile.
	Pairs
	// HotCold mixes uniform draws from a small hot set with a cold stream.
	HotCold
	// Scan touches each ever-new block R times consecutively (R = ScanReuse,
	// default 2) and never again: near-zero capacity demand (stack distance
	// 1) but non-zero reuse counts — the classic dead-block pattern that
	// pollutes frequency-based global replacement (V-Way) while remaining a
	// harmless giver for set-level schemes.
	Scan
)

// String returns the pattern's name.
func (k PatternKind) String() string {
	switch k {
	case Cyclic:
		return "cyclic"
	case Zipf:
		return "zipf"
	case Stream:
		return "stream"
	case Pairs:
		return "pairs"
	case HotCold:
		return "hotcold"
	case Scan:
		return "scan"
	default:
		return fmt.Sprintf("PatternKind(%d)", uint8(k))
	}
}

// Pattern parameterizes a per-set tag sequence.
type Pattern struct {
	Kind PatternKind
	// N is the working-set size in blocks (Cyclic, Zipf, HotCold hot-set).
	N int
	// Theta is the Zipf skew (≈0.6-1.2 typical); ignored elsewhere.
	Theta float64
	// HotFrac is the probability of a hot access (HotCold only).
	HotFrac float64
	// ScanReuse is how many consecutive touches each Scan block receives
	// before dying (default 2).
	ScanReuse int
	// DriftMin/DriftMax/DriftPeriod give Cyclic a slow random walk of N
	// within [DriftMin, DriftMax], one ±1 step every DriftPeriod accesses;
	// zero DriftPeriod disables drift. This produces the time-varying
	// set-level demand visible in paper Figure 1.
	DriftMin, DriftMax, DriftPeriod int
}

// validate reports configuration errors early.
func (p Pattern) validate() error {
	switch p.Kind {
	case Cyclic:
		if p.N <= 0 {
			return fmt.Errorf("trace: cyclic pattern needs N > 0, got %d", p.N)
		}
		if p.DriftPeriod > 0 && (p.DriftMin <= 0 || p.DriftMax < p.DriftMin) {
			return fmt.Errorf("trace: bad drift range [%d,%d]", p.DriftMin, p.DriftMax)
		}
	case Zipf:
		if p.N <= 0 {
			return fmt.Errorf("trace: zipf pattern needs N > 0, got %d", p.N)
		}
		if p.Theta <= 0 {
			return fmt.Errorf("trace: zipf pattern needs Theta > 0, got %v", p.Theta)
		}
	case HotCold:
		if p.N <= 0 {
			return fmt.Errorf("trace: hotcold pattern needs N > 0, got %d", p.N)
		}
		if p.HotFrac < 0 || p.HotFrac > 1 {
			return fmt.Errorf("trace: hotcold HotFrac %v outside [0,1]", p.HotFrac)
		}
	case Stream, Pairs:
		// no parameters
	case Scan:
		if p.ScanReuse < 0 {
			return fmt.Errorf("trace: negative ScanReuse %d", p.ScanReuse)
		}
	default:
		return fmt.Errorf("trace: unknown pattern kind %d", p.Kind)
	}
	return nil
}

// setState is the per-set instantiation of a pattern: a deterministic tag
// sequence local to one cache set. Tags start at 1 (tag 0 is avoided so
// hashed signatures of real tags are never the all-zero H3 input). Pattern
// and Zipf table are the group's, shared: a set's own state is 56 bytes.
type setState struct {
	pat *Pattern
	cdf *table // shared Zipf CDF (nil otherwise)
	rng sim.RNG

	pos    uint64 // cyclic position / pairs step
	next   uint64 // stream high-water mark
	n      int    // live working-set size (drift)
	sinceD int    // accesses since last drift step
}

func newSetState(pat *Pattern, cdf *table, seed uint64) setState {
	s := setState{pat: pat, cdf: cdf, n: pat.N}
	s.rng.Seed(seed)
	if pat.Kind == Cyclic && pat.DriftPeriod > 0 {
		// Start the walk somewhere inside the range, per set.
		s.n = pat.DriftMin + int(s.rng.Uint64()%uint64(pat.DriftMax-pat.DriftMin+1))
	}
	return s
}

// nextTag advances the per-set sequence.
func (s *setState) nextTag() uint64 {
	switch s.pat.Kind {
	case Cyclic:
		if s.pat.DriftPeriod > 0 {
			s.sinceD++
			if s.sinceD >= s.pat.DriftPeriod {
				s.sinceD = 0
				if s.rng.OneIn(2) {
					if s.n < s.pat.DriftMax {
						s.n++
					}
				} else if s.n > s.pat.DriftMin {
					s.n--
				}
			}
		}
		t := s.pos%uint64(s.n) + 1
		s.pos++
		return t
	case Zipf:
		return uint64(s.cdf.locate(s.rng.Float64())) + 1
	case Stream:
		s.next++
		return s.next
	case Pairs:
		// x,y,x,y then slide: steps 0,1,2,3 -> x,y,x,y with x=base+1.
		step := s.pos % 4
		base := (s.pos / 4) * 2
		s.pos++
		if step == 0 || step == 2 {
			return base + 1
		}
		return base + 2
	case HotCold:
		if s.rng.Bernoulli(s.pat.HotFrac) {
			return uint64(s.rng.Intn(s.pat.N)) + 1
		}
		s.next++
		return uint64(s.pat.N) + s.next
	case Scan:
		r := uint64(s.pat.ScanReuse)
		if r == 0 {
			r = 2
		}
		t := s.pos/r + 1
		s.pos++
		return t
	default:
		// invariant: pattern kinds form a closed enum covered by this switch.
		panic("trace: unreachable pattern kind")
	}
}

// zipfCDF builds the cumulative distribution for Zipf(theta) over n items.
func zipfCDF(n int, theta float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
		cdf[i-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// table is a cumulative distribution sampled in O(1): cum is non-decreasing
// and ends at the total; guide cuts [0, total) into 4·len(cum) buckets and
// holds, for each, the first index whose cum reaches the bucket's lower edge.
type table struct {
	cum   []float64
	guide []int32
	scale float64 // buckets per unit of u
}

func newTable(cum []float64) *table {
	t := &table{cum: cum, guide: make([]int32, 4*len(cum))}
	t.scale = float64(len(t.guide)) / cum[len(cum)-1]
	i := 0
	for b := range t.guide {
		for edge := float64(b) / t.scale; i < len(cum)-1 && cum[i] < edge; {
			i++
		}
		t.guide[b] = int32(i)
	}
	return t
}

// locate returns the first index whose cum reaches u ≥ 0, the last index if
// none does: sort.SearchFloat64s(t.cum, u), clamped. The guide is a hint,
// never the answer — the walk, a step or two, settles by comparing u with cum
// alone, in both directions, so rounding in the bucket cannot change a draw.
func (t *table) locate(u float64) int {
	i := int(t.guide[min(int(u*t.scale), len(t.guide)-1)])
	for i < len(t.cum)-1 && t.cum[i] < u {
		i++
	}
	for i > 0 && t.cum[i-1] >= u {
		i--
	}
	return i
}
