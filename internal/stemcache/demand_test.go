package stemcache

import (
	"sort"
	"testing"
	"time"

	"repro/internal/clock"
)

// TestDemandFreshCache pins the rest-state gauges: every SC_S starts at
// zero, so a fresh cache is all givers, no takers and no couplings.
func TestDemandFreshCache(t *testing.T) {
	c := mustNew[string, int](Config{Capacity: 256, Shards: 4, Ways: 4, Seed: 7})
	st := c.Stats()
	wantSets := uint64(c.Shards() * c.sets)
	if st.TakerSets != 0 {
		t.Errorf("TakerSets = %d, want 0", st.TakerSets)
	}
	if st.GiverSets != wantSets {
		t.Errorf("GiverSets = %d, want %d (every set starts giver)", st.GiverSets, wantSets)
	}
	if st.CoupledSets != 0 {
		t.Errorf("CoupledSets = %d, want 0", st.CoupledSets)
	}
}

// TestDemandCountsRoles forces known SCDM counter states and checks the
// taker/giver/coupled gauges Stats reads off them.
func TestDemandCountsRoles(t *testing.T) {
	c := coupledCache(t, nil) // 1 shard, set 0 taker coupled to set 2 (giver)
	eng := &c.shards[0].eng
	// Pin one extra uncoupled set just below saturation (neither taker nor
	// giver: MSB set, not saturated).
	eng.Monitor(1).ScS = eng.Geom().MSB

	st := c.Stats()
	if st.TakerSets != 1 {
		t.Errorf("TakerSets = %d, want 1 (set 0)", st.TakerSets)
	}
	// Every set except the saturated taker (set 0) and the MSB-pinned set 1
	// still has a clear MSB.
	if want := uint64(c.sets - 2); st.GiverSets != want {
		t.Errorf("GiverSets = %d, want %d", st.GiverSets, want)
	}
	if st.CoupledSets != 2 {
		t.Errorf("CoupledSets = %d, want 2 (both ends of one pair)", st.CoupledSets)
	}
}

// TestAppendKeysListsResidents pins the handoff enumeration: resident keys
// (cooperatively cached ones included) are listed, expired ones are not,
// and the listing perturbs no eviction or stats state.
func TestAppendKeysListsResidents(t *testing.T) {
	var clk clock.Manual
	clk.Advance(1000)
	c := coupledCache(t, &clk)

	spilled := spillOne(t, c, 0) // 4 local keys in set 0 + 1 cc entry in set 2
	c.SetWithTTL(1, 1, time.Nanosecond)
	clk.Advance(10) // the TTL'd key expires, unswept

	before := c.Stats()
	keys := c.AppendKeys(nil)
	sort.Ints(keys)

	want := map[int]bool{}
	sets := c.sets
	for i := 0; i < 5; i++ {
		want[i*sets] = true // includes the spilled key, resident as cc
	}
	if len(keys) != len(want) {
		t.Fatalf("AppendKeys listed %d keys %v, want %d", len(keys), keys, len(want))
	}
	for _, k := range keys {
		if !want[k] {
			t.Errorf("unexpected key %d in listing", k)
		}
	}
	found := false
	for _, k := range keys {
		if k == spilled {
			found = true
		}
	}
	if !found {
		t.Errorf("spilled (cooperatively cached) key %d missing from listing", spilled)
	}
	if after := c.Stats(); after != before {
		t.Errorf("AppendKeys changed stats: before %+v, after %+v", before, after)
	}
}

// TestAppendKeysAppends checks the append contract (dst is extended, not
// replaced).
func TestAppendKeysAppends(t *testing.T) {
	c := mustNew[string, int](Config{Capacity: 64, Shards: 1, Ways: 4, Seed: 3})
	c.Set("a", 1)
	got := c.AppendKeys([]string{"prefix"})
	if len(got) != 2 || got[0] != "prefix" || got[1] != "a" {
		t.Fatalf("AppendKeys = %v, want [prefix a]", got)
	}
}
