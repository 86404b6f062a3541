package trace

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/sim"
)

// Group assigns one pattern to a fraction of the cache's sets.
type Group struct {
	// Name labels the group in reports.
	Name string
	// Frac is the fraction of sets in this group; a workload's fractions
	// must sum to ~1.
	Frac float64
	// Weight is the relative access frequency *per set* of this group.
	Weight float64
	// Pat is the per-set pattern.
	Pat Pattern
}

// Workload describes a full synthetic benchmark: how the cache's sets are
// partitioned into demand groups and how often each is visited.
type Workload struct {
	// Name labels the workload.
	Name string
	// APKI is the LLC accesses per kilo-instruction (drives Instrs).
	APKI float64
	// WriteFrac is the probability an access is a store.
	WriteFrac float64
	// Groups partition the sets.
	Groups []Group
}

// Validate reports configuration errors.
func (w Workload) Validate() error {
	if w.APKI <= 0 {
		return fmt.Errorf("trace: workload %q needs APKI > 0", w.Name)
	}
	if w.WriteFrac < 0 || w.WriteFrac > 1 {
		return fmt.Errorf("trace: workload %q WriteFrac %v outside [0,1]", w.Name, w.WriteFrac)
	}
	if len(w.Groups) == 0 {
		return fmt.Errorf("trace: workload %q has no groups", w.Name)
	}
	total := 0.0
	for _, g := range w.Groups {
		if g.Frac <= 0 || g.Weight <= 0 {
			return fmt.Errorf("trace: workload %q group %q needs positive Frac and Weight", w.Name, g.Name)
		}
		if err := g.Pat.validate(); err != nil {
			return fmt.Errorf("workload %q group %q: %w", w.Name, g.Name, err)
		}
		total += g.Frac
	}
	if total < 0.999 || total > 1.001 {
		return fmt.Errorf("trace: workload %q group fractions sum to %v, want 1", w.Name, total)
	}
	return nil
}

// Gen generates the workload's reference stream for a concrete geometry.
type Gen struct {
	w     Workload
	geom  sim.Geometry
	rng   *sim.RNG
	state []setState // one per set
	group []int      // set -> group index
	sets  *table     // cumulative per-set weights for sampling
	total float64

	ipa      float64 // instructions per access
	instrAcc float64
}

// NewGen instantiates a workload over a geometry. The set→group assignment
// is a fixed pseudo-random permutation of the index space so that every
// group is spread across the sets (which matters for schemes that sample
// leader sets or track low-saturation sets). It panics on invalid input.
func NewGen(w Workload, geom sim.Geometry, seed uint64) *Gen {
	if err := w.Validate(); err != nil {
		// invariant: workloads are validated where they are defined (the experiment tables).
		panic(err)
	}
	if err := geom.Validate(); err != nil {
		// invariant: geometry comes from the experiment harness, which validates it before constructing schemes.
		panic(fmt.Sprintf("trace: %v", err))
	}
	w.Groups = slices.Clone(w.Groups) // the sets point into it; the caller keeps its own
	g := &Gen{
		w:     w,
		geom:  geom,
		rng:   sim.NewRNG(seed),
		state: make([]setState, geom.Sets),
		group: make([]int, geom.Sets),
		ipa:   1000 / w.APKI,
	}

	// Shared Zipf tables, one per distinct (N, Theta).
	cdfs := map[[2]float64]*table{}
	cdfFor := func(p Pattern) *table {
		if p.Kind != Zipf {
			return nil
		}
		key := [2]float64{float64(p.N), p.Theta}
		if cdfs[key] == nil {
			cdfs[key] = newTable(zipfCDF(p.N, p.Theta))
		}
		return cdfs[key]
	}

	// Group boundaries over a permuted index space. Multiplying by a fixed
	// odd constant is a bijection on power-of-two set counts.
	bounds := make([]float64, len(w.Groups))
	acc := 0.0
	for i, grp := range w.Groups {
		acc += grp.Frac
		bounds[i] = acc
	}
	cum := make([]float64, geom.Sets)
	for s := 0; s < geom.Sets; s++ {
		p := (s * 0x9E3779B1) & (geom.Sets - 1)
		f := (float64(p) + 0.5) / float64(geom.Sets)
		gi := sort.SearchFloat64s(bounds, f)
		if gi >= len(w.Groups) {
			gi = len(w.Groups) - 1
		}
		g.group[s] = gi
		grp := &w.Groups[gi]
		g.state[s] = newSetState(&grp.Pat, cdfFor(grp.Pat), seed^uint64(s)*0x9e3779b97f4a7c15)
		g.total += grp.Weight
		cum[s] = g.total
	}
	g.sets = newTable(cum)
	return g
}

// GroupOf reports which group set idx belongs to (reporting, tests).
func (g *Gen) GroupOf(set int) int { return g.group[set] }

// Workload returns the spec the generator was built from.
func (g *Gen) Workload() Workload { return g.w }

// Next implements Generator.
func (g *Gen) Next() Ref {
	set := g.sets.locate(g.rng.Float64() * g.total)
	tag := g.state[set].nextTag()

	g.instrAcc += g.ipa
	n := uint32(g.instrAcc)
	if n < 1 {
		n = 1
	}
	g.instrAcc -= float64(n)

	return Ref{
		Block:  g.geom.BlockFor(tag, set),
		Write:  g.rng.Bernoulli(g.w.WriteFrac),
		Instrs: n,
	}
}

// Fixed is a finite, repeating reference sequence; it implements Generator
// by cycling. It backs the paper's deterministic Figure 2 workloads.
type Fixed struct {
	refs []Ref
	pos  int
}

// NewFixed wraps a sequence without copying it (passes over one loaded trace
// share it): the caller must not modify refs. It panics on an empty sequence.
func NewFixed(refs []Ref) *Fixed {
	if len(refs) == 0 {
		// invariant: documented precondition of this internal constructor; the experiment harness and tests always satisfy it.
		panic("trace: empty fixed sequence")
	}
	return &Fixed{refs: refs}
}

// Len returns the period of the sequence.
func (f *Fixed) Len() int { return len(f.refs) }

// Next implements Generator.
func (f *Fixed) Next() Ref {
	r := f.refs[f.pos]
	f.pos++
	if f.pos == len(f.refs) {
		f.pos = 0
	}
	return r
}
