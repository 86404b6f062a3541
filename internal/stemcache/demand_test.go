package stemcache

import (
	"sort"
	"testing"
	"time"
)

// TestDemandFreshCache pins the rest-state signal: every SC_S starts at
// zero, so a fresh cache is all givers, no takers, saturation 0 — the shape
// the cluster's demand rounds read as "this node has slack".
func TestDemandFreshCache(t *testing.T) {
	c := mustNew[string, int](Config{Capacity: 256, Shards: 4, Ways: 4, Seed: 7})
	d := c.Demand()
	wantSets := c.Shards() * c.sets
	if d.Sets != wantSets {
		t.Fatalf("Sets = %d, want %d", d.Sets, wantSets)
	}
	if d.TakerSets != 0 {
		t.Errorf("TakerSets = %d, want 0", d.TakerSets)
	}
	if d.GiverSets != wantSets {
		t.Errorf("GiverSets = %d, want %d (every set starts giver)", d.GiverSets, wantSets)
	}
	if d.CoupledSets != 0 {
		t.Errorf("CoupledSets = %d, want 0", d.CoupledSets)
	}
	if d.Saturation() != 0 || d.TakerFrac() != 0 {
		t.Errorf("Saturation = %v, TakerFrac = %v, want 0, 0", d.Saturation(), d.TakerFrac())
	}
	if d.Live != 0 || d.Capacity != c.Capacity() {
		t.Errorf("Live = %d, Capacity = %d, want 0, %d", d.Live, d.Capacity, c.Capacity())
	}
	if d.ScSMax != uint64(wantSets)*uint64(c.shards[0].eng.Geom().Max) {
		t.Errorf("ScSMax = %d, want %d", d.ScSMax, uint64(wantSets)*uint64(c.shards[0].eng.Geom().Max))
	}
}

// TestDemandCountsRoles forces known SCDM counter states and checks the
// aggregate's taker/giver/coupled counts and counter sum.
func TestDemandCountsRoles(t *testing.T) {
	c := coupledCache(t) // 1 shard, set 0 taker coupled to set 2 (giver)
	eng := &c.shards[0].eng
	// Pin one extra uncoupled set just below saturation (neither taker nor
	// giver: MSB set, not saturated).
	eng.Monitor(1).ScS = eng.Geom().MSB

	d := c.Demand()
	if d.TakerSets != 1 {
		t.Errorf("TakerSets = %d, want 1 (set 0)", d.TakerSets)
	}
	// Every set except the saturated taker (set 0) and the MSB-pinned set 1
	// still has a clear MSB.
	if want := d.Sets - 2; d.GiverSets != want {
		t.Errorf("GiverSets = %d, want %d", d.GiverSets, want)
	}
	if d.CoupledSets != 2 {
		t.Errorf("CoupledSets = %d, want 2 (both ends of one pair)", d.CoupledSets)
	}
	if want := uint64(c.shards[0].eng.Geom().Max) + uint64(c.shards[0].eng.Geom().MSB); d.ScSSum != want {
		t.Errorf("ScSSum = %d, want %d", d.ScSSum, want)
	}
	if d.Saturation() <= 0 || d.Saturation() >= 1 {
		t.Errorf("Saturation = %v, want in (0, 1)", d.Saturation())
	}

	// Stats must expose the same gauges (the wire STATS path reads them).
	st := c.Stats()
	if st.TakerSets != uint64(d.TakerSets) || st.GiverSets != uint64(d.GiverSets) ||
		st.CoupledSets != uint64(d.CoupledSets) {
		t.Errorf("Stats gauges (%d, %d, %d) disagree with Demand (%d, %d, %d)",
			st.TakerSets, st.GiverSets, st.CoupledSets,
			d.TakerSets, d.GiverSets, d.CoupledSets)
	}
}

// TestAppendKeysListsResidents pins the handoff enumeration: resident keys
// (cooperatively cached ones included) are listed, expired ones are not,
// and the listing perturbs no eviction or stats state.
func TestAppendKeysListsResidents(t *testing.T) {
	c := coupledCache(t)
	clock := int64(1000)
	c.now = func() int64 { return clock }

	spilled := spillOne(t, c, 0) // 4 local keys in set 0 + 1 cc entry in set 2
	c.SetWithTTL(1, 1, time.Nanosecond)
	clock += 10 // the TTL'd key expires, unswept

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
