package main

import (
	"path/filepath"
	"testing"

	stem "repro"
)

// TestReplayMatchesLiveRun: recording N references of an analog and
// replaying the file is the same experiment as running the live generator —
// bit-identical Stats, MPKI, AMAT and CPI for the same scheme seed — and the
// measured portion is exactly N−warm accesses (the replay once ran the access
// at the warm boundary before the reset, measuring one fewer than it
// accounted).
func TestReplayMatchesLiveRun(t *testing.T) {
	const (
		n    = 60_000
		warm = n / 4
		seed = 0x57E4
	)
	geom := stem.Geometry{Sets: 256, Ways: 8, LineSize: 64}
	path := filepath.Join(t.TempDir(), "omnetpp.trc.gz")
	if err := recordTrace(path, "omnetpp", n, geom, seed); err != nil {
		t.Fatal(err)
	}
	refs, err := loadRefs(path, "", geom.LineSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != n {
		t.Fatalf("loaded %d references, recorded %d", len(refs), n)
	}
	b, err := stem.BenchmarkByName("omnetpp")
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"LRU", "STEM"} {
		got, err := replay(refs, scheme, geom, seed, warm, nil)
		if err != nil {
			t.Fatal(err)
		}
		live, err := stem.NewScheme(scheme, geom, seed)
		if err != nil {
			t.Fatal(err)
		}
		want := stem.Run(live, stem.NewGenerator(b.Workload, geom, seed),
			stem.RunConfig{Geom: geom, Warmup: warm, Measure: n - warm})
		if got != want {
			t.Errorf("%s: replay diverged from the live run:\n got %+v\nwant %+v", scheme, got, want)
		}
		if got.Stats.Accesses != n-warm {
			t.Errorf("%s: measured %d accesses, want exactly %d", scheme, got.Stats.Accesses, n-warm)
		}
		if got.Stats.Misses == 0 || got.MPKI <= 0 {
			t.Errorf("%s: degenerate replay: %+v", scheme, got)
		}
	}
}
