package stemcache

import (
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The simulator (core.Cache) and the library (this package) host the same
// core.Engine. These tests hold them to it: one seeded reference stream
// into both must produce the same hit/miss per access, the same mechanism
// counters and the same ordered mechanism-event sequence. A failure names
// the seed and the access index that reproduce it.

// mechEvent is the host-independent part of a mechanism event. Ticks are
// left out on purpose: a library miss is a Get plus a Set, two ticks where
// the simulator's Access spends one.
type mechEvent struct {
	typ          obs.EventType
	set, partner int
}

// diffRun is what one differential run leaves behind.
type diffRun struct {
	sim      sim.Stats
	lib      Stats
	simEvent []mechEvent
	libEvent []mechEvent
}

func recordInto(dst *[]mechEvent) obs.Observer {
	return obs.ObserverFunc(func(e obs.Event) {
		*dst = append(*dst, mechEvent{e.Type, e.Set, e.Partner})
	})
}

// diffRef draws reference i of the mixed stream: a hot region that fits, a
// cyclic sweep of twice the capacity, and a thrash aimed at four sets with
// more tags than ways — so hits, shadow hits, swaps, couplings, spills and
// drains all occur.
func diffRef(rng *sim.RNG, geom sim.Geometry, i int) uint64 {
	switch rng.Intn(10) {
	case 0, 1, 2, 3:
		return uint64(rng.Intn(geom.Sets * geom.Ways / 4))
	case 4, 5, 6:
		return uint64(1<<20 + i%(2*geom.Sets*geom.Ways))
	default:
		return geom.BlockFor(uint64(1<<12+rng.Intn(geom.Ways+3)), rng.Intn(4))
	}
}

// runDifferential drives n references of the seeded stream through a
// core.Cache and a one-shard, identity-hashed stemcache of the same
// geometry, failing at the first access whose outcome differs. The
// simulator runs the library's receive rule (BIPReceive), which a STEM
// cache always sets.
func runDifferential(t *testing.T, seed uint64, n int) diffRun {
	t.Helper()
	geom := sim.Geometry{Sets: 64, Ways: 8, LineSize: 64}
	var r diffRun
	sc := core.New(geom, core.Config{Seed: seed, BIPReceive: true})
	sc.SetObserver(recordInto(&r.simEvent))
	lc := mustWithHasher[uint64, struct{}](Config{
		Capacity: geom.Sets * geom.Ways, Shards: 1, Ways: geom.Ways, Seed: seed,
		Observer: recordInto(&r.libEvent),
	}, func(k uint64) uint64 { return k })

	rng := sim.NewRNG(seed ^ 0xd1ff)
	for i := 0; i < n; i++ {
		b := diffRef(rng, geom, i)
		out := sc.Access(sim.Access{Block: b})
		_, ok := lc.Get(b)
		if !ok {
			lc.Set(b, struct{}{})
		}
		if ok != out.Hit {
			t.Fatalf("seed %d access %d block %#x: simulator hit=%v, library hit=%v", seed, i, b, out.Hit, ok)
		}
	}
	r.sim, r.lib = sc.Stats(), lc.Stats()
	return r
}

// only keeps (keep=true) or drops (keep=false) the events of type typ.
func only(ev []mechEvent, typ obs.EventType, keep bool) []mechEvent {
	var out []mechEvent
	for _, e := range ev {
		if (e.typ == typ) == keep {
			out = append(out, e)
		}
	}
	return out
}

func diffEvents(t *testing.T, seed uint64, simEv, libEv []mechEvent) {
	t.Helper()
	for i := 0; i < len(simEv) && i < len(libEv); i++ {
		if simEv[i] != libEv[i] {
			t.Fatalf("seed %d event %d: simulator %+v, library %+v", seed, i, simEv[i], libEv[i])
		}
	}
	if len(simEv) != len(libEv) {
		t.Fatalf("seed %d: simulator emitted %d events, library %d", seed, len(simEv), len(libEv))
	}
}

func TestSimulatorLibraryDifferential(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		r := runDifferential(t, seed, 200_000)
		simN := [...]uint64{r.sim.Accesses, r.sim.Hits, r.sim.SecondaryHits, r.sim.ShadowHits,
			r.sim.PolicySwaps, r.sim.Couplings, r.sim.Decouplings, r.sim.Spills, r.sim.Receives}
		libN := [...]uint64{r.lib.Gets, r.lib.Hits, r.lib.SecondaryHits, r.lib.ShadowHits,
			r.lib.PolicySwaps, r.lib.Couplings, r.lib.Decouplings, r.lib.Spills, r.lib.Receives}
		if simN != libN {
			t.Fatalf("seed %d counters (accesses hits secondary shadow swaps couplings decouplings spills receives):\nsimulator %v\nlibrary   %v",
				seed, simN, libN)
		}
		for i, c := range simN {
			if c == 0 {
				t.Fatalf("seed %d: counter %d stayed zero; the stream no longer exercises the mechanism", seed, i)
			}
		}
		diffEvents(t, seed,
			only(r.simEvent, obs.EvClassChange, false), only(r.libEvent, obs.EvClassChange, false))
	}
}

// TestLibraryEmitsClassChanges: the library's observer stream carries the
// same class_change events, in the same order, as the simulator's.
func TestLibraryEmitsClassChanges(t *testing.T) {
	r := runDifferential(t, 7, 50_000)
	simEv := only(r.simEvent, obs.EvClassChange, true)
	if len(simEv) == 0 {
		t.Fatal("the simulator emitted no class_change event; the stream is too tame")
	}
	diffEvents(t, 7, simEv, only(r.libEvent, obs.EvClassChange, true))
}

// TestGetOrSetMatchesGetThenSet is GetOrSet's documented contract: Stats
// and the demand monitors see exactly what a Get-then-Set cache-aside pair
// would have shown them. It failed while GetOrSet's miss path skipped the
// shadow directory (no shadow hits, so no swaps and no couplings).
func TestGetOrSetMatchesGetThenSet(t *testing.T) {
	cfg := Config{Capacity: 256, Shards: 1, Ways: 8, Seed: 1}
	one, pair := mustNew[int, int](cfg), mustNew[int, int](cfg)
	rng := sim.NewRNG(9)
	for i := 0; i < 40_000; i++ {
		k := i % 400 // sweep over capacity
		if rng.OneIn(3) {
			k = 1000 + rng.Intn(64) // hot keys that fit
		}
		one.GetOrSet(k, k)
		if _, ok := pair.Get(k); !ok {
			pair.Set(k, k)
		}
	}
	got, want := one.Stats(), pair.Stats()
	if got != want {
		t.Fatalf("GetOrSet loop and Get-then-Set loop diverged:\nGetOrSet     %+v\nGet-then-Set %+v", got, want)
	}
	if want.ShadowHits == 0 || want.Couplings == 0 {
		t.Fatalf("workload never engaged the mechanism: %+v", want)
	}
}
