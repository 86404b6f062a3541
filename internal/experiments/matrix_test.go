package experiments

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// countedSim counts the accesses a simulator has been handed.
type countedSim struct {
	sim.Simulator
	n int
}

func (c *countedSim) Access(a sim.Access) sim.Outcome {
	c.n++
	return c.Simulator.Access(a)
}

// lookaheadGen records, at each Next, how many accesses the simulator has
// seen: reference i must be pulled when exactly i accesses are done.
type lookaheadGen struct {
	trace.Generator
	s    *countedSim
	seen []int
}

func (g *lookaheadGen) Next() trace.Ref {
	g.seen = append(g.seen, g.s.n)
	return g.Generator.Next()
}

// TestRunPullsOneReferencePerAccess pins what bench/'s replay generator
// rests on: Run pulls each reference immediately before the access that
// consumes it, so a generator that reads the clock inside Next times the
// simulation and nothing else. A Run that pre-pulled a chunk would fail here.
func TestRunPullsOneReferencePerAccess(t *testing.T) {
	cfg := RunConfig{Geom: sim.Geometry{Sets: 64, Ways: 4, LineSize: 64}, Warmup: 1_000, Measure: 3_000}
	w := workloads.Suite()[0].Workload
	for name, o := range map[string]*obs.Options{"plain": nil, "observed": {Registry: obs.NewRegistry()}} {
		cfg.Obs = o
		lru, err := NewScheme("LRU", cfg.Geom, 1)
		if err != nil {
			t.Fatal(err)
		}
		s := &countedSim{Simulator: lru}
		g := &lookaheadGen{Generator: trace.NewGen(w, cfg.Geom, 1), s: s}
		Run(s, g, cfg)
		if len(g.seen) != cfg.Warmup+cfg.Measure {
			t.Fatalf("%s: %d references pulled, want %d", name, len(g.seen), cfg.Warmup+cfg.Measure)
		}
		for i, n := range g.seen {
			if n != i {
				t.Fatalf("%s: reference %d pulled after %d accesses (look-ahead)", name, i, n)
			}
		}
	}
}
