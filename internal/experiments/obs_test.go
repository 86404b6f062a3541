package experiments

import (
	"bytes"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// obsRunConfig is small enough for a unit test but large enough that STEM
// couples, spills, decouples and swaps on the omnetpp analog.
var obsRunConfig = RunConfig{
	Geom:    sim.Geometry{Sets: 128, Ways: 16, LineSize: 64},
	Warmup:  50_000,
	Measure: 150_000,
}

// traceSummary folds an event stream into per-type counts plus the last
// snapshot seen, the two halves a trace reconciles against a run's stats.
type traceSummary struct {
	Counts map[obs.EventType]uint64
	Last   *obs.Snapshot // last EvSnapshot payload, nil if none
}

func summarizeTrace(events []obs.Event) traceSummary {
	s := traceSummary{Counts: map[obs.EventType]uint64{}}
	for i := range events {
		e := &events[i]
		s.Counts[e.Type]++
		if e.Type == obs.EvSnapshot && e.Snap != nil {
			s.Last = e.Snap
		}
	}
	return s
}

func tracedRun(t *testing.T, scheme string, o *obs.Options) RunResult {
	t.Helper()
	cfg := obsRunConfig
	cfg.Obs = o
	b, err := workloads.ByName("omnetpp")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheme(scheme, cfg.Geom, 1)
	if err != nil {
		t.Fatal(err)
	}
	return Run(s, trace.NewGen(b.Workload, cfg.Geom, 1), cfg)
}

// TestTraceReconcilesWithStats is the acceptance check for the event trace:
// replaying the JSONL of a run must reproduce the run's final sim.Stats
// exactly — hits + misses from the final snapshot, spill/receive/couple/
// decouple/swap/shadow-hit counts from the event stream.
func TestTraceReconcilesWithStats(t *testing.T) {
	for _, scheme := range []string{"STEM", "SBC"} {
		t.Run(scheme, func(t *testing.T) {
			var buf bytes.Buffer
			tr := obs.NewJSONLTracer(&buf)
			res := tracedRun(t, scheme, &obs.Options{Tracer: tr, SnapshotEvery: 10_000})
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			events, err := obs.ReadEvents(&buf)
			if err != nil {
				t.Fatal(err)
			}
			sum := summarizeTrace(events)
			st := res.Stats

			// Couplings may all fall in the warm-up phase (SBC associations
			// persist), so only spilling is guaranteed measured activity.
			if st.Spills == 0 {
				t.Fatalf("%s run exercised no coupling: %+v", scheme, st)
			}
			reconcile := map[obs.EventType]uint64{
				obs.EvSpill:    st.Spills,
				obs.EvReceive:  st.Receives,
				obs.EvCouple:   st.Couplings,
				obs.EvDecouple: st.Decouplings,
			}
			if scheme == "STEM" {
				reconcile[obs.EvPolicySwap] = st.PolicySwaps
				reconcile[obs.EvShadowHit] = st.ShadowHits
			}
			for ev, want := range reconcile {
				if got := sum.Counts[ev]; got != want {
					t.Errorf("%v: trace says %d, stats say %d", ev, got, want)
				}
			}

			if sum.Last == nil {
				t.Fatal("no final snapshot in trace")
			}
			if !sum.Last.Final {
				t.Fatal("last snapshot not marked final")
			}
			if sum.Last.Stats != st {
				t.Errorf("final snapshot stats %+v != run stats %+v", sum.Last.Stats, st)
			}
			if sum.Last.Stats.Hits+sum.Last.Stats.Misses != st.Accesses {
				t.Errorf("hits+misses = %d, accesses = %d",
					sum.Last.Stats.Hits+sum.Last.Stats.Misses, st.Accesses)
			}
			if want := uint64(obsRunConfig.Measure/10_000 - 1 + 1); sum.Counts[obs.EvSnapshot] != want {
				t.Errorf("snapshot events = %d, want %d", sum.Counts[obs.EvSnapshot], want)
			}
			if sum.Last.Scheme == nil {
				t.Error("final snapshot missing scheme introspection")
			}
		})
	}
}

// TestObservedRunMatchesPlainRun locks the key property of the tentpole:
// enabling observability must not change simulation results.
func TestObservedRunMatchesPlainRun(t *testing.T) {
	for _, scheme := range []string{"STEM", "SBC", "LRU", "DIP"} {
		plain := tracedRun(t, scheme, nil)
		reg := obs.NewRegistry()
		observed := tracedRun(t, scheme, &obs.Options{
			Registry: reg,
			Tracer:   obs.NewRegistryObserver(reg, nil),
		})
		if plain.Stats != observed.Stats {
			t.Fatalf("%s: observability changed the run: %+v vs %+v",
				scheme, plain.Stats, observed.Stats)
		}
		if plain.MPKI != observed.MPKI || plain.CPI != observed.CPI {
			t.Fatalf("%s: timing diverged", scheme)
		}
		// The registry's per-access counters must agree with the stats too.
		if got := reg.Counter("run.accesses").Value(); got != observed.Stats.Accesses {
			t.Fatalf("%s: run.accesses = %d, want %d", scheme, got, observed.Stats.Accesses)
		}
		if got := reg.Counter("run.misses").Value(); got != observed.Stats.Misses {
			t.Fatalf("%s: run.misses = %d, want %d", scheme, got, observed.Stats.Misses)
		}
	}
}

// TestSnapshotCallback checks the OnSnapshot path and that per-snapshot
// stats are monotonic.
func TestSnapshotCallback(t *testing.T) {
	var snaps []obs.Snapshot
	tracedRun(t, "STEM", &obs.Options{
		SnapshotEvery: 25_000,
		OnSnapshot:    func(sn obs.Snapshot) { snaps = append(snaps, sn) },
	})
	if len(snaps) != 6 { // 5 periodic (the 150k-th is folded into final) + 1 final
		t.Fatalf("got %d snapshots", len(snaps))
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Tick <= snaps[i-1].Tick {
			t.Fatal("snapshot ticks not increasing")
		}
		if snaps[i].Stats.Accesses < snaps[i-1].Stats.Accesses {
			t.Fatal("snapshot stats not monotonic")
		}
	}
	last := snaps[len(snaps)-1]
	if !last.Final || last.Tick != uint64(obsRunConfig.Measure) {
		t.Fatalf("final snapshot = %+v", last)
	}
	if last.MPKI <= 0 {
		t.Fatalf("final MPKI = %v", last.MPKI)
	}
}
