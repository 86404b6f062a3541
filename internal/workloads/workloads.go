// Package workloads defines the 15-benchmark synthetic analog suite that
// substitutes for the paper's SPEC CPU 2000/2006 selection (§5.1, Table 2).
//
// Each analog is a trace.Workload whose set-level structure is engineered to
// reproduce the class behaviour the paper reports, not its instruction
// stream:
//
//   - Class I (ammp, apsi, astar, omnetpp, xalancbmk): pronounced set-level
//     non-uniformity of capacity demand — low-demand, low-traffic sets
//     (givers) alongside sets whose working set exceeds the associativity
//     but fits in roughly twice of it (takers), so spatial schemes have
//     headroom.
//   - Class II (art, cactusADM, galgel, mcf, sphinx3): poor temporal
//     locality — uniformly thrashing cyclic working sets that advanced
//     insertion policies (BIP/DIP) convert into partial hits, diluted with
//     scan/stream traffic no policy can fix. art's working sets are so
//     large that nothing helps at 2MB, reproducing the paper's observation.
//   - Class III (gobmk, gromacs, soplex, twolf, vpr): uniform demand and
//     good temporal locality; plain LRU is already sufficient.
//
// Two deliberately engineered pathologies reproduce the paper's headline
// observations:
//
//   - astar places a 2%-of-sets, very hot thrashing sliver exactly in the
//     permuted assignment window [0.58, 0.60), which covers one of DIP's
//     (and PeLIFO's) LRU-leader sets but none of their BIP-leader sets.
//     The sliver's misses dominate the duel, the cache-level winner becomes
//     BIP, and the majority Pairs sets — reuse at stack distance 2, the
//     most BIP-hostile pattern — pay for it. This is the paper's §5.2
//     astar pathology: non-uniform sets make the sampled leaders
//     unrepresentative of the rest of the cache.
//   - Scan groups (each block touched twice, then dead) leave nonzero reuse
//     counts on dead lines, polluting V-Way's frequency-based global
//     replacement while remaining harmless givers for set-level schemes —
//     the mechanism behind V-Way underperforming LRU on many benchmarks.
//
// APKI (LLC accesses per kilo-instruction) is calibrated per analog so the
// LRU MPKI at the paper's 2MB/16-way configuration lands near Table 2.
// EXPERIMENTS.md records paper-vs-measured for every benchmark.
package workloads

import (
	"fmt"

	"repro/internal/trace"
)

// Class is the paper's workload taxonomy (Figure 6).
type Class int

const (
	// ClassI marks set-level non-uniform capacity demands (spatial headroom).
	ClassI Class = 1
	// ClassII marks poor temporal locality (temporal headroom).
	ClassII Class = 2
	// ClassIII marks LRU-friendly behaviour (no headroom).
	ClassIII Class = 3
)

// String renders the class as the paper writes it: I, II or III.
func (c Class) String() string {
	if c < ClassI || c > ClassIII {
		return fmt.Sprintf("Class(%d)", int(c))
	}
	return "III"[:c]
}

// Benchmark is one entry of the suite.
type Benchmark struct {
	// Name is the SPEC benchmark this analog stands in for.
	Name string
	// Class is its paper classification.
	Class Class
	// PaperMPKI is the LRU MPKI of Table 2 (calibration target).
	PaperMPKI float64
	// Workload is the synthetic spec.
	Workload trace.Workload
}

// Suite returns the 15 analogs in the paper's presentation order (Class I,
// II, III; alphabetical within each class, as in Table 2).
func Suite() []Benchmark {
	return []Benchmark{
		// ----- Class I: non-uniform set-level capacity demands -----
		{
			// ammp (paper Fig 1b): ~50% of sets demand <= 4-6 lines, a
			// visible zero-demand band, and a mid band around 8-14. At 16
			// ways everything fits, so the Figure 7 story is temporal
			// schemes *hurting* ammp (cache-level BIP tramples the pairs
			// sets) while STEM's per-set decisions stay safe; the mid band
			// drives the Figure 3b sweep where SBC/STEM win at 4-10 ways.
			Name: "ammp", Class: ClassI, PaperMPKI: 2.535,
			Workload: trace.Workload{
				Name: "ammp", APKI: 6.2, WriteFrac: 0.30,
				Groups: []trace.Group{
					{Name: "tiny", Frac: 0.38, Weight: 0.35,
						Pat: trace.Pattern{Kind: trace.Zipf, N: 5, Theta: 1.2}},
					{Name: "quiet", Frac: 0.20, Weight: 0.12,
						Pat: trace.Pattern{Kind: trace.Zipf, N: 14, Theta: 0.3}},
					// Hot thrashing sliver in the [0.58, 0.60) assignment
					// window: covers a DIP LRU-leader but no BIP-leader, so
					// the duel flips to BIP (see package comment). Position
					// in this list is load-bearing.
					{Name: "thrash", Frac: 0.02, Weight: 8,
						Pat: trace.Pattern{Kind: trace.Cyclic, N: 60}},
					{Name: "pairs", Frac: 0.20, Weight: 1.2,
						Pat: trace.Pattern{Kind: trace.Pairs}},
					{Name: "mid", Frac: 0.12, Weight: 1.2,
						Pat: trace.Pattern{Kind: trace.Cyclic, N: 9, DriftMin: 6, DriftMax: 12, DriftPeriod: 350}},
					{Name: "scan", Frac: 0.08, Weight: 0.8,
						Pat: trace.Pattern{Kind: trace.Scan}},
				},
			},
		},
		{
			// apsi: takers just beyond the 2x-associativity horizon, so
			// only the temporal dimension (and STEM's combined use of
			// partial cooperative capacity) pays at 16 ways.
			Name: "apsi", Class: ClassI, PaperMPKI: 5.453,
			Workload: trace.Workload{
				Name: "apsi", APKI: 8.9, WriteFrac: 0.32,
				Groups: []trace.Group{
					{Name: "small", Frac: 0.45, Weight: 0.4,
						Pat: trace.Pattern{Kind: trace.Zipf, N: 7, Theta: 1.0}},
					{Name: "cyc", Frac: 0.30, Weight: 1.2,
						Pat: trace.Pattern{Kind: trace.Cyclic, N: 34, DriftMin: 30, DriftMax: 38, DriftPeriod: 400}},
					{Name: "scan", Frac: 0.25, Weight: 0.9,
						Pat: trace.Pattern{Kind: trace.Scan}},
				},
			},
		},
		{
			// astar (paper §5.2 pathology): BIP wins the cache-level duel
			// on the strength of one unlucky leader set, and the majority
			// pairs sets pay for it under DIP; STEM decides per set.
			Name: "astar", Class: ClassI, PaperMPKI: 2.622,
			Workload: trace.Workload{
				Name: "astar", APKI: 4.7, WriteFrac: 0.28,
				Groups: []trace.Group{
					{Name: "pairs", Frac: 0.58, Weight: 1.0,
						Pat: trace.Pattern{Kind: trace.Pairs}},
					// The [0.58, 0.60) sliver; position is load-bearing.
					{Name: "thrash", Frac: 0.02, Weight: 12,
						Pat: trace.Pattern{Kind: trace.Cyclic, N: 48}},
					{Name: "small", Frac: 0.40, Weight: 0.35,
						Pat: trace.Pattern{Kind: trace.Zipf, N: 5, Theta: 1.1}},
				},
			},
		},
		{
			// omnetpp (paper Fig 1a): ~half the sets need <= 16 lines, the
			// rest spread up to and beyond 32. The "big" band sits past the
			// 2x horizon (V-Way tag-limited, SBC coupling insufficient);
			// the "huge"-band/mid sets are coupling-fixable, giving STEM
			// its edge over DIP at 16 ways and the spatial schemes their
			// 18-24-way window in Figure 3a.
			Name: "omnetpp", Class: ClassI, PaperMPKI: 11.553,
			Workload: trace.Workload{
				Name: "omnetpp", APKI: 14.6, WriteFrac: 0.33,
				Groups: []trace.Group{
					{Name: "small", Frac: 0.35, Weight: 0.5,
						Pat: trace.Pattern{Kind: trace.Zipf, N: 10, Theta: 0.8}},
					{Name: "quiet", Frac: 0.10, Weight: 0.12,
						Pat: trace.Pattern{Kind: trace.Zipf, N: 14, Theta: 0.3}},
					{Name: "big", Frac: 0.35, Weight: 1.6,
						Pat: trace.Pattern{Kind: trace.Cyclic, N: 36, DriftMin: 28, DriftMax: 42, DriftPeriod: 300}},
					{Name: "mid", Frac: 0.20, Weight: 1.0,
						Pat: trace.Pattern{Kind: trace.Cyclic, N: 24, DriftMin: 20, DriftMax: 28, DriftPeriod: 600}},
				},
			},
		},
		{
			// xalancbmk: like omnetpp with heavier unfixable scan traffic.
			Name: "xalancbmk", Class: ClassI, PaperMPKI: 14.789,
			Workload: trace.Workload{
				Name: "xalancbmk", APKI: 20, WriteFrac: 0.35,
				Groups: []trace.Group{
					{Name: "small", Frac: 0.30, Weight: 0.5,
						Pat: trace.Pattern{Kind: trace.Zipf, N: 8, Theta: 0.9}},
					{Name: "quiet", Frac: 0.10, Weight: 0.12,
						Pat: trace.Pattern{Kind: trace.Zipf, N: 14, Theta: 0.3}},
					{Name: "big", Frac: 0.35, Weight: 2.0,
						Pat: trace.Pattern{Kind: trace.Cyclic, N: 40, DriftMin: 34, DriftMax: 46, DriftPeriod: 450}},
					{Name: "scan", Frac: 0.25, Weight: 1.2,
						Pat: trace.Pattern{Kind: trace.Scan}},
				},
			},
		},

		// ----- Class II: poor temporal locality -----
		{
			// art: uniform working sets so large that nothing helps at 2MB
			// (the paper: improvable only below 1MB).
			Name: "art", Class: ClassII, PaperMPKI: 16.769,
			Workload: trace.Workload{
				Name: "art", APKI: 16.8, WriteFrac: 0.25,
				Groups: []trace.Group{
					{Name: "vast", Frac: 1.0, Weight: 1.0,
						Pat: trace.Pattern{Kind: trace.Cyclic, N: 300}},
				},
			},
		},
		{
			Name: "cactusADM", Class: ClassII, PaperMPKI: 3.459,
			Workload: trace.Workload{
				Name: "cactusADM", APKI: 3.8, WriteFrac: 0.38,
				Groups: []trace.Group{
					{Name: "cyc", Frac: 0.75, Weight: 1.0,
						Pat: trace.Pattern{Kind: trace.Cyclic, N: 34, DriftMin: 30, DriftMax: 38, DriftPeriod: 500}},
					{Name: "scan", Frac: 0.25, Weight: 0.5,
						Pat: trace.Pattern{Kind: trace.Scan}},
				},
			},
		},
		{
			Name: "galgel", Class: ClassII, PaperMPKI: 1.426,
			Workload: trace.Workload{
				Name: "galgel", APKI: 1.6, WriteFrac: 0.30,
				Groups: []trace.Group{
					{Name: "cyc", Frac: 0.70, Weight: 1.0,
						Pat: trace.Pattern{Kind: trace.Cyclic, N: 34, DriftMin: 30, DriftMax: 38, DriftPeriod: 400}},
					{Name: "scan", Frac: 0.30, Weight: 0.7,
						Pat: trace.Pattern{Kind: trace.Scan}},
				},
			},
		},
		{
			Name: "mcf", Class: ClassII, PaperMPKI: 59.993,
			Workload: trace.Workload{
				Name: "mcf", APKI: 61, WriteFrac: 0.27,
				Groups: []trace.Group{
					{Name: "cyc", Frac: 0.80, Weight: 1.0,
						Pat: trace.Pattern{Kind: trace.Cyclic, N: 30, DriftMin: 25, DriftMax: 35, DriftPeriod: 300}},
					{Name: "stream", Frac: 0.20, Weight: 1.0,
						Pat: trace.Pattern{Kind: trace.Stream}},
				},
			},
		},
		{
			Name: "sphinx3", Class: ClassII, PaperMPKI: 10.969,
			Workload: trace.Workload{
				Name: "sphinx3", APKI: 12.9, WriteFrac: 0.22,
				Groups: []trace.Group{
					{Name: "cyc", Frac: 0.65, Weight: 1.0,
						Pat: trace.Pattern{Kind: trace.Cyclic, N: 36, DriftMin: 32, DriftMax: 40, DriftPeriod: 700}},
					{Name: "scan", Frac: 0.20, Weight: 0.6,
						Pat: trace.Pattern{Kind: trace.Scan}},
					{Name: "small", Frac: 0.15, Weight: 0.4,
						Pat: trace.Pattern{Kind: trace.Zipf, N: 6, Theta: 1.0}},
				},
			},
		},

		// ----- Class III: LRU is sufficient -----
		{
			Name: "gobmk", Class: ClassIII, PaperMPKI: 2.236,
			Workload: trace.Workload{
				Name: "gobmk", APKI: 36, WriteFrac: 0.29,
				Groups: []trace.Group{
					{Name: "hot", Frac: 0.70, Weight: 1.0,
						Pat: trace.Pattern{Kind: trace.Zipf, N: 10, Theta: 1.0}},
					{Name: "quiet", Frac: 0.10, Weight: 0.1,
						Pat: trace.Pattern{Kind: trace.Zipf, N: 14, Theta: 0.3}},
					{Name: "scan", Frac: 0.20, Weight: 0.5,
						Pat: trace.Pattern{Kind: trace.Scan}},
				},
			},
		},
		{
			Name: "gromacs", Class: ClassIII, PaperMPKI: 1.099,
			Workload: trace.Workload{
				Name: "gromacs", APKI: 30, WriteFrac: 0.31,
				Groups: []trace.Group{
					{Name: "hot", Frac: 0.90, Weight: 1.0,
						Pat: trace.Pattern{Kind: trace.Zipf, N: 8, Theta: 1.2}},
					{Name: "scan", Frac: 0.10, Weight: 0.8,
						Pat: trace.Pattern{Kind: trace.Scan}},
				},
			},
		},
		{
			Name: "soplex", Class: ClassIII, PaperMPKI: 24.298,
			Workload: trace.Workload{
				Name: "soplex", APKI: 50, WriteFrac: 0.24,
				Groups: []trace.Group{
					{Name: "stream", Frac: 0.30, Weight: 1.6,
						Pat: trace.Pattern{Kind: trace.Stream}},
					{Name: "scan", Frac: 0.20, Weight: 0.8,
						Pat: trace.Pattern{Kind: trace.Scan}},
					{Name: "hot", Frac: 0.50, Weight: 1.0,
						Pat: trace.Pattern{Kind: trace.Zipf, N: 12, Theta: 1.0}},
				},
			},
		},
		{
			Name: "twolf", Class: ClassIII, PaperMPKI: 3.793,
			Workload: trace.Workload{
				Name: "twolf", APKI: 31, WriteFrac: 0.30,
				Groups: []trace.Group{
					{Name: "hot", Frac: 0.60, Weight: 1.0,
						Pat: trace.Pattern{Kind: trace.Zipf, N: 14, Theta: 0.9}},
					{Name: "quiet", Frac: 0.15, Weight: 0.1,
						Pat: trace.Pattern{Kind: trace.Zipf, N: 14, Theta: 0.3}},
					{Name: "scan", Frac: 0.25, Weight: 0.8,
						Pat: trace.Pattern{Kind: trace.Scan}},
				},
			},
		},
		{
			Name: "vpr", Class: ClassIII, PaperMPKI: 3.306,
			Workload: trace.Workload{
				Name: "vpr", APKI: 45, WriteFrac: 0.28,
				Groups: []trace.Group{
					{Name: "hot", Frac: 0.70, Weight: 1.0,
						Pat: trace.Pattern{Kind: trace.Zipf, N: 12, Theta: 1.0}},
					{Name: "warm", Frac: 0.10, Weight: 0.7,
						Pat: trace.Pattern{Kind: trace.Zipf, N: 15, Theta: 0.8}},
					{Name: "quiet", Frac: 0.10, Weight: 0.1,
						Pat: trace.Pattern{Kind: trace.Zipf, N: 14, Theta: 0.3}},
					{Name: "scan", Frac: 0.10, Weight: 1.2,
						Pat: trace.Pattern{Kind: trace.Scan}},
				},
			},
		},
	}
}

// ByName returns the analog with the given name.
func ByName(name string) (Benchmark, error) {
	for _, b := range Suite() {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("workloads: unknown benchmark %q (have %v)", name, Names())
}

// Names lists the suite's benchmark names in order.
func Names() []string {
	s := Suite()
	names := make([]string, len(s))
	for i, b := range s {
		names[i] = b.Name
	}
	return names
}
