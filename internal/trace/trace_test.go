package trace

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

var geom = sim.Geometry{Sets: 64, Ways: 8, LineSize: 64}

func TestPatternValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Pattern
		ok   bool
	}{
		{"cyclic ok", Pattern{Kind: Cyclic, N: 4}, true},
		{"cyclic zero N", Pattern{Kind: Cyclic}, false},
		{"cyclic drift ok", Pattern{Kind: Cyclic, N: 4, DriftMin: 2, DriftMax: 8, DriftPeriod: 100}, true},
		{"cyclic drift bad range", Pattern{Kind: Cyclic, N: 4, DriftMin: 8, DriftMax: 2, DriftPeriod: 100}, false},
		{"zipf ok", Pattern{Kind: Zipf, N: 16, Theta: 0.9}, true},
		{"zipf no theta", Pattern{Kind: Zipf, N: 16}, false},
		{"stream ok", Pattern{Kind: Stream}, true},
		{"pairs ok", Pattern{Kind: Pairs}, true},
		{"hotcold ok", Pattern{Kind: HotCold, N: 4, HotFrac: 0.9}, true},
		{"hotcold bad frac", Pattern{Kind: HotCold, N: 4, HotFrac: 1.5}, false},
		{"unknown kind", Pattern{Kind: PatternKind(99), N: 4}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.p.validate(); (err == nil) != c.ok {
				t.Fatalf("validate = %v, want ok=%v", err, c.ok)
			}
		})
	}
}

func TestCyclicTagSequence(t *testing.T) {
	s := newSetState(&Pattern{Kind: Cyclic, N: 3}, nil, 1)
	want := []uint64{1, 2, 3, 1, 2, 3, 1}
	for i, w := range want {
		if got := s.nextTag(); got != w {
			t.Fatalf("tag %d = %d, want %d", i, got, w)
		}
	}
}

func TestStreamNeverRepeats(t *testing.T) {
	s := newSetState(&Pattern{Kind: Stream}, nil, 1)
	seen := map[uint64]bool{}
	for i := 0; i < 10000; i++ {
		tag := s.nextTag()
		if seen[tag] {
			t.Fatalf("stream repeated tag %d", tag)
		}
		seen[tag] = true
	}
}

func TestPairsReuseDistance(t *testing.T) {
	// Every tag must appear exactly twice, separated by one other tag.
	s := newSetState(&Pattern{Kind: Pairs}, nil, 1)
	var last4 []uint64
	for i := 0; i < 400; i++ {
		last4 = append(last4, s.nextTag())
		if len(last4) == 4 {
			if last4[0] != last4[2] || last4[1] != last4[3] || last4[0] == last4[1] {
				t.Fatalf("window %v is not x,y,x,y", last4)
			}
			last4 = nil
		}
	}
}

func TestZipfSkew(t *testing.T) {
	cdf := newTable(zipfCDF(64, 1.0))
	s := newSetState(&Pattern{Kind: Zipf, N: 64, Theta: 1.0}, cdf, 7)
	counts := map[uint64]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		tag := s.nextTag()
		if tag < 1 || tag > 64 {
			t.Fatalf("zipf tag %d out of range", tag)
		}
		counts[tag]++
	}
	if counts[1] < counts[32]*4 {
		t.Fatalf("zipf head not hot: counts[1]=%d counts[32]=%d", counts[1], counts[32])
	}
}

func TestZipfCDFMonotone(t *testing.T) {
	f := func(nRaw uint8, thetaRaw uint8) bool {
		n := int(nRaw)%100 + 1
		theta := float64(thetaRaw%30)/10 + 0.1
		cdf := zipfCDF(n, theta)
		prev := 0.0
		for _, v := range cdf {
			if v < prev {
				return false
			}
			prev = v
		}
		return cdf[n-1] > 0.9999 && cdf[n-1] < 1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHotColdMix(t *testing.T) {
	s := newSetState(&Pattern{Kind: HotCold, N: 4, HotFrac: 0.8}, nil, 3)
	hot := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if s.nextTag() <= 4 {
			hot++
		}
	}
	frac := float64(hot) / n
	if frac < 0.77 || frac > 0.83 {
		t.Fatalf("hot fraction %v, want ~0.8", frac)
	}
}

func TestCyclicDriftStaysInRange(t *testing.T) {
	s := newSetState(&Pattern{Kind: Cyclic, N: 4, DriftMin: 2, DriftMax: 6, DriftPeriod: 10}, nil, 9)
	for i := 0; i < 10000; i++ {
		s.nextTag()
		if s.n < 2 || s.n > 6 {
			t.Fatalf("drifted N = %d escaped [2,6]", s.n)
		}
	}
}

func testWorkload() Workload {
	return Workload{
		Name:      "test",
		APKI:      20,
		WriteFrac: 0.3,
		Groups: []Group{
			{Name: "big", Frac: 0.5, Weight: 2, Pat: Pattern{Kind: Cyclic, N: 16}},
			{Name: "small", Frac: 0.25, Weight: 1, Pat: Pattern{Kind: Zipf, N: 4, Theta: 1.0}},
			{Name: "stream", Frac: 0.25, Weight: 1, Pat: Pattern{Kind: Stream}},
		},
	}
}

func TestWorkloadValidate(t *testing.T) {
	w := testWorkload()
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := w
	bad.Groups = append([]Group(nil), w.Groups...)
	bad.Groups[0].Frac = 0.9 // fractions now sum to 1.4
	if bad.Validate() == nil {
		t.Fatal("accepted fractions summing beyond 1")
	}
	bad = w
	bad.APKI = 0
	if bad.Validate() == nil {
		t.Fatal("accepted zero APKI")
	}
	bad = w
	bad.Groups = nil
	if bad.Validate() == nil {
		t.Fatal("accepted empty groups")
	}
}

func TestGenGroupProportions(t *testing.T) {
	g := NewGen(testWorkload(), geom, 1)
	counts := make([]int, 3)
	for s := 0; s < geom.Sets; s++ {
		counts[g.GroupOf(s)]++
	}
	if counts[0] != 32 || counts[1] != 16 || counts[2] != 16 {
		t.Fatalf("group sizes %v, want [32 16 16]", counts)
	}
}

func TestGenGroupsSpreadAcrossIndexSpace(t *testing.T) {
	// No group may own a long contiguous run of sets (leader-set sampling
	// and selector heaps assume spreading).
	g := NewGen(testWorkload(), geom, 1)
	run, maxRun := 1, 1
	for s := 1; s < geom.Sets; s++ {
		if g.GroupOf(s) == g.GroupOf(s-1) {
			run++
			if run > maxRun {
				maxRun = run
			}
		} else {
			run = 1
		}
	}
	if maxRun > 10 {
		t.Fatalf("longest same-group run = %d, want spread-out assignment", maxRun)
	}
}

func TestGenRefsWellFormed(t *testing.T) {
	g := NewGen(testWorkload(), geom, 2)
	writes := 0
	var instrs uint64
	const n = 100000
	for i := 0; i < n; i++ {
		r := g.Next()
		set := geom.Index(r.Block)
		if set < 0 || set >= geom.Sets {
			t.Fatalf("ref outside geometry: %#x", r.Block)
		}
		if r.Instrs < 1 {
			t.Fatal("ref with zero instructions")
		}
		if r.Write {
			writes++
		}
		instrs += uint64(r.Instrs)
	}
	wf := float64(writes) / n
	if wf < 0.27 || wf > 0.33 {
		t.Fatalf("write fraction %v, want ~0.3", wf)
	}
	// APKI 20 → 50 instructions per access on average.
	ipa := float64(instrs) / n
	if ipa < 49 || ipa > 51 {
		t.Fatalf("instructions per access %v, want ~50", ipa)
	}
}

func TestGenWeightsBiasAccesses(t *testing.T) {
	g := NewGen(testWorkload(), geom, 3)
	counts := make([]int, 3)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[g.GroupOf(geom.Index(g.Next().Block))]++
	}
	// Group 0: 32 sets × weight 2 = 64; groups 1,2: 16 × 1 = 16 each.
	// Expected shares: 2/3, 1/6, 1/6.
	got := float64(counts[0]) / n
	if got < 0.63 || got > 0.70 {
		t.Fatalf("group 0 share %v, want ~0.667", got)
	}
}

func TestGenDeterminism(t *testing.T) {
	a := NewGen(testWorkload(), geom, 42)
	b := NewGen(testWorkload(), geom, 42)
	for i := 0; i < 10000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("generators diverged at ref %d", i)
		}
	}
}

func TestGenPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGen(Workload{Name: "bad"}, geom, 1)
}

func TestFixedCycles(t *testing.T) {
	refs := []Ref{{Block: 1, Instrs: 1}, {Block: 2, Instrs: 1}, {Block: 3, Instrs: 1}}
	f := NewFixed(refs)
	if f.Len() != 3 {
		t.Fatalf("Len = %d", f.Len())
	}
	for round := 0; round < 3; round++ {
		for _, want := range refs {
			if got := f.Next(); got != want {
				t.Fatalf("round %d: got %+v want %+v", round, got, want)
			}
		}
	}
}

// TestFixedSharesTheSequence: several passes over one loaded trace (`stemsim
// run -replay`, one per column group) must not each hold a copy of it.
func TestFixedSharesTheSequence(t *testing.T) {
	refs := make([]Ref, 1000)
	if f := NewFixed(refs); &f.refs[0] != &refs[0] {
		t.Fatal("NewFixed copied the sequence")
	}
}

func TestFixedPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFixed(nil)
}

func TestFigure2Construction(t *testing.T) {
	for ex, wantPeriod := range map[int]int{1: 12, 2: 12, 3: 60} {
		f := Figure2(ex)
		if f.Len() != wantPeriod {
			t.Fatalf("example %d period = %d, want %d", ex, f.Len(), wantPeriod)
		}
		// Alternating sets 0,1; set-0 tags cycle 1..6.
		for i := 0; i < f.Len(); i++ {
			r := f.Next()
			if got, want := Figure2Geometry.Index(r.Block), i%2; got != want {
				t.Fatalf("example %d ref %d in set %d, want %d", ex, i, got, want)
			}
		}
	}
}

func TestFigure2SetOneWorkingSets(t *testing.T) {
	for ex, ws1 := range map[int]int{1: 2, 2: 3, 3: 5} {
		f := Figure2(ex)
		tags := map[uint64]bool{}
		for i := 0; i < f.Len(); i++ {
			r := f.Next()
			if Figure2Geometry.Index(r.Block) == 1 {
				tags[Figure2Geometry.Tag(r.Block)] = true
			}
		}
		if len(tags) != ws1 {
			t.Fatalf("example %d: %d distinct set-1 tags, want %d", ex, len(tags), ws1)
		}
	}
}

func TestFigure2Panics(t *testing.T) {
	for _, ex := range []int{0, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Figure2(%d) did not panic", ex)
				}
			}()
			Figure2(ex)
		}()
	}
}

func TestFigure2Expected(t *testing.T) {
	lru, dip, sbc := Figure2Expected(3)
	if lru != 1 || sbc != 1 {
		t.Fatal("example 3 expectations wrong")
	}
	if dip < 0.44 || dip > 0.46 {
		t.Fatalf("example 3 DIP expectation %v", dip)
	}
}

func TestScanTouchesTwiceThenDies(t *testing.T) {
	s := newSetState(&Pattern{Kind: Scan}, nil, 1)
	want := []uint64{1, 1, 2, 2, 3, 3}
	for i, w := range want {
		if got := s.nextTag(); got != w {
			t.Fatalf("tag %d = %d, want %d", i, got, w)
		}
	}
	s3 := newSetState(&Pattern{Kind: Scan, ScanReuse: 3}, nil, 1)
	want3 := []uint64{1, 1, 1, 2, 2, 2}
	for i, w := range want3 {
		if got := s3.nextTag(); got != w {
			t.Fatalf("reuse-3 tag %d = %d, want %d", i, got, w)
		}
	}
}

func TestPatternKindStrings(t *testing.T) {
	want := map[PatternKind]string{
		Cyclic: "cyclic", Zipf: "zipf", Stream: "stream",
		Pairs: "pairs", HotCold: "hotcold", Scan: "scan",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%v.String() = %q, want %q", uint8(k), k.String(), s)
		}
	}
	if PatternKind(200).String() != "PatternKind(200)" {
		t.Fatal("unknown kind string")
	}
}

func TestScanValidation(t *testing.T) {
	if (Pattern{Kind: Scan, ScanReuse: -1}).validate() == nil {
		t.Fatal("negative ScanReuse accepted")
	}
	if (Pattern{Kind: Scan, ScanReuse: 3}).validate() != nil {
		t.Fatal("valid scan rejected")
	}
}

func TestGenWorkloadAccessor(t *testing.T) {
	w := testWorkload()
	g := NewGen(w, geom, 1)
	if g.Workload().Name != w.Name {
		t.Fatal("Workload() accessor broken")
	}
}

func TestFigure2ExpectedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Figure2Expected(0)
}
