// Package mem implements the memory-timing model used to derive the
// paper's throughput metrics (AMAT, Figure 8; CPI, Figure 9) from simulated
// LLC outcomes.
//
// The latency arithmetic is exactly §5.1 of the paper:
//
//	L2 hit (local)                       tag + data        = 14 cycles
//	L2 miss, single probe                tag               =  6 cycles + DRAM
//	L2 miss, coupled taker (two probes)  2 × tag           = 12 cycles + DRAM
//	L2 secondary hit (partner set)       2 × tag + data    = 20 cycles
//	DRAM                                                    300 cycles
//
// The CPU side is a first-order analytic model rather than a cycle-accurate
// out-of-order core (DESIGN.md §3 records the substitution): traces carry
// retired-instruction counts, the L1 is summarized by its access rate, and
// CPI = CPIBase + StallFactor × (L2-side latency beyond L1) / instructions,
// where StallFactor is the fraction of memory latency an 8-wide OoO core
// fails to hide. MPKI is timing-independent; AMAT uses the exact latency
// table; CPI ordering between schemes is driven by the same miss counts.
package mem

import "repro/internal/sim"

// Timing holds the latency parameters (paper Table 1 / §5.1).
type Timing struct {
	L1HitCycles int     // L1 data-cache hit latency
	TagCycles   int     // one L2 tag-store access
	DataCycles  int     // one L2 data-store access
	DRAMCycles  int     // main-memory access
	CPIBase     float64 // core CPI with a perfect L2
	StallFactor float64 // fraction of L2+DRAM latency exposed as stalls
	L1APKI      float64 // L1 accesses per kilo-instruction
}

// DefaultTiming returns the paper's configuration.
func DefaultTiming() Timing {
	return Timing{
		L1HitCycles: 2,
		TagCycles:   6,
		DataCycles:  8,
		DRAMCycles:  300,
		CPIBase:     0.7,
		StallFactor: 0.2,
		L1APKI:      350, // ~0.35 memory references per instruction
	}
}

// L2Latency returns the cycles one L2 access costs under §5.1's table.
func (t Timing) L2Latency(o sim.Outcome) int {
	switch {
	case o.SecondaryHit:
		return 2*t.TagCycles + t.DataCycles // 20 with defaults
	case o.Hit:
		return t.TagCycles + t.DataCycles // 14
	case o.Secondary:
		return 2*t.TagCycles + t.DRAMCycles // 12 + 300
	default:
		return t.TagCycles + t.DRAMCycles // 6 + 300
	}
}

// Account accumulates timing over a run; it is fed one outcome per LLC
// access plus the trace's instruction counts.
type Account struct {
	t        Timing
	Instrs   uint64 // retired instructions
	L2Accs   uint64 // LLC accesses (= L1 misses)
	L2Misses uint64
	L2Cycles uint64 // Σ per-access L2 latency
}

// NewAccount builds an accounting sink over the paper's latency table
// (DefaultTiming).
func NewAccount() *Account { return &Account{t: DefaultTiming()} }

// Record folds one LLC access and its preceding instruction gap.
func (a *Account) Record(instrs uint32, o sim.Outcome) {
	a.Instrs += uint64(instrs)
	a.L2Accs++
	if !o.Hit {
		a.L2Misses++
	}
	a.L2Cycles += uint64(a.t.L2Latency(o))
}

// MPKI returns LLC misses per kilo-instruction.
func (a *Account) MPKI() float64 {
	if a.Instrs == 0 {
		return 0
	}
	return float64(a.L2Misses) * 1000 / float64(a.Instrs)
}

// L1Accesses estimates the L1 reference count from the instruction total.
func (a *Account) L1Accesses() float64 {
	return float64(a.Instrs) * a.t.L1APKI / 1000
}

// AMAT returns the average memory access time over L1 references: every L1
// access pays the L1 hit latency; the fraction that miss (the LLC accesses
// we simulated) additionally pay their measured L2-side latency.
func (a *Account) AMAT() float64 {
	l1 := a.L1Accesses()
	if l1 <= 0 {
		return 0
	}
	return float64(a.t.L1HitCycles) + float64(a.L2Cycles)/l1
}

// CPI returns the first-order cycles per instruction.
func (a *Account) CPI() float64 {
	if a.Instrs == 0 {
		return 0
	}
	stalls := a.t.StallFactor * float64(a.L2Cycles)
	return a.t.CPIBase + stalls/float64(a.Instrs)
}
