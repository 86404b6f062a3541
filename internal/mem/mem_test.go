package mem

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestDefaultTimingValid(t *testing.T) {
	// The one table every Account uses: positive latencies and a stall
	// factor that is a fraction.
	tm := DefaultTiming()
	if tm.L1HitCycles <= 0 || tm.TagCycles <= 0 || tm.DataCycles <= 0 || tm.DRAMCycles <= 0 {
		t.Fatalf("latencies must be positive: %+v", tm)
	}
	if tm.CPIBase <= 0 || tm.StallFactor < 0 || tm.StallFactor > 1 || tm.L1APKI <= 0 {
		t.Fatalf("bad CPU-side parameters: %+v", tm)
	}
}

func TestL2LatencyMatchesPaper(t *testing.T) {
	// §5.1: hit 14, miss 6(+DRAM), coupled miss 12(+DRAM), secondary hit 20.
	tm := DefaultTiming()
	cases := []struct {
		o    sim.Outcome
		want int
	}{
		{sim.Outcome{Hit: true}, 14},
		{sim.Outcome{}, 306},
		{sim.Outcome{Secondary: true}, 312},
		{sim.Outcome{Hit: true, Secondary: true, SecondaryHit: true}, 20},
	}
	for _, c := range cases {
		if got := tm.L2Latency(c.o); got != c.want {
			t.Fatalf("L2Latency(%+v) = %d, want %d", c.o, got, c.want)
		}
	}
}

func TestMPKI(t *testing.T) {
	a := NewAccount()
	// 10 accesses, 4 misses, 50 instructions each → 500 instrs, MPKI = 8.
	for i := 0; i < 10; i++ {
		a.Record(50, sim.Outcome{Hit: i >= 4})
	}
	if got := a.MPKI(); math.Abs(got-8) > 1e-9 {
		t.Fatalf("MPKI = %v, want 8", got)
	}
}

func TestAMATArithmetic(t *testing.T) {
	tm := DefaultTiming()
	a := NewAccount()
	// One hit (14 cycles of L2) over 1000 instructions.
	a.Record(1000, sim.Outcome{Hit: true})
	l1 := 1000 * tm.L1APKI / 1000 // 350 L1 accesses
	want := float64(tm.L1HitCycles) + 14/l1
	if got := a.AMAT(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("AMAT = %v, want %v", got, want)
	}
}

func TestCPIMonotoneInMisses(t *testing.T) {
	tm := DefaultTiming()
	hits := NewAccount()
	misses := NewAccount()
	for i := 0; i < 100; i++ {
		hits.Record(20, sim.Outcome{Hit: true})
		misses.Record(20, sim.Outcome{})
	}
	if hits.CPI() >= misses.CPI() {
		t.Fatalf("CPI(hits)=%v not below CPI(misses)=%v", hits.CPI(), misses.CPI())
	}
	if hits.CPI() <= tm.CPIBase {
		t.Fatal("CPI must exceed the base even for hits")
	}
}

func TestEmptyAccount(t *testing.T) {
	a := NewAccount()
	if a.MPKI() != 0 || a.AMAT() != 0 || a.CPI() != 0 {
		t.Fatal("empty account must report zeros")
	}
}

func TestSecondaryHitCheaperThanMiss(t *testing.T) {
	// The cooperative-caching premise: a 20-cycle secondary hit beats a
	// 306-cycle DRAM round trip.
	tm := DefaultTiming()
	sh := tm.L2Latency(sim.Outcome{Hit: true, Secondary: true, SecondaryHit: true})
	ms := tm.L2Latency(sim.Outcome{})
	if sh >= ms {
		t.Fatalf("secondary hit (%d) not cheaper than miss (%d)", sh, ms)
	}
	// But costlier than a local hit — the price of coupling.
	lh := tm.L2Latency(sim.Outcome{Hit: true})
	if sh <= lh {
		t.Fatalf("secondary hit (%d) not costlier than local hit (%d)", sh, lh)
	}
}
