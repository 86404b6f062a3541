package stemcache

import (
	"testing"
	"time"

	"repro/internal/clock"
)

// These tests pin the exact return-value and accounting semantics the
// network server (internal/server) translates into wire responses: Len
// backs the STATS frame's occupancy, Delete's report becomes the DEL
// status, and GetOrSet is what a slot copy's store-if-absent REPLICATE
// runs — all of which must stay exact under TTL expiry, coupling and
// spilling.

// identity hashes an int key to itself: with Shards=1 the set index is
// key % sets and the tag is the high bits, giving tests full control over
// placement.
func identity(k int) uint64 { return uint64(k) }

// coupledCache builds a 1-shard cache with set 0 force-coupled as taker to
// set 2 (giver), pinned so victims of set 0 spill into set 2.
func coupledCache(t *testing.T, clk clock.Clock) *Cache[int, int] {
	t.Helper()
	c := mustWithHasher[int, int](Config{Capacity: 64, Shards: 1, Ways: 4, Seed: 1, Clock: clk}, identity)
	eng := &c.shards[0].eng
	eng.Miss(2, 0)                      // giver: a miss with a clear MSB posts set 2 to the heap
	eng.Monitor(0).ScS = eng.Geom().Max // taker: saturated spatial demand
	eng.Victim(0)                       // a taker asked for a victim requests a partner
	if eng.Role(0) != "taker" || eng.Partner(0) != 2 {
		t.Fatalf("setup: set 0 not coupled as taker (role %s partner %d)",
			eng.Role(0), eng.Partner(0))
	}
	return c
}

// spillOne fills taker set 0 and inserts one more local key so exactly one
// victim is spilled into giver set 2; it returns the spilled key.
func spillOne(t *testing.T, c *Cache[int, int], ttl time.Duration) int {
	t.Helper()
	sh := &c.shards[0]
	sets := c.sets
	for i := 0; i < 5; i++ { // 5 keys into a 4-way set: one spill
		c.SetWithTTL(i*sets, i, ttl)
		sh.eng.Monitor(0).ScS = sh.eng.Geom().Max // counter rules may decay it; re-pin
	}
	if got := c.Stats().Spills; got != 1 {
		t.Fatalf("setup: Spills = %d, want 1", got)
	}
	for w, tag := range c.tags(sh, 2) {
		if tag&tagCC != 0 {
			return c.set(sh, 2)[w].key
		}
	}
	t.Fatal("setup: no cc entry found in giver set")
	return 0
}

// TestLenExcludesExpiredUnswept is the regression test for the lazy-TTL
// accounting bug: entries past their TTL that no operation has touched must
// not be counted by Len (the server's STATS occupancy), and the Len call
// itself sweeps them into Expirations.
func TestLenExcludesExpiredUnswept(t *testing.T) {
	var clk clock.Manual
	clk.Advance(1)
	c := mustNew[string, int](Config{Capacity: 256, Shards: 2, Seed: 1, Clock: &clk})

	for i := 0; i < 5; i++ {
		c.SetWithTTL(string(rune('a'+i)), i, time.Second)
	}
	for i := 0; i < 3; i++ {
		c.Set(string(rune('x'+i)), i) // no TTL
	}
	if got := c.Len(); got != 8 {
		t.Fatalf("Len before expiry = %d, want 8", got)
	}

	clk.Advance(2 * time.Second)
	// No operation has touched the expired keys: the old Len would still
	// report 8 here.
	if got := c.Len(); got != 3 {
		t.Fatalf("Len after expiry = %d, want 3 (expired entries counted)", got)
	}
	if st := c.Stats(); st.Expirations != 5 {
		t.Fatalf("Expirations = %d, want 5 (Len must sweep)", st.Expirations)
	}
	// The sweep is idempotent.
	if got := c.Len(); got != 3 {
		t.Fatalf("second Len = %d, want 3", got)
	}
	if st := c.Stats(); st.Expirations != 5 {
		t.Fatalf("Expirations after second Len = %d, want 5", st.Expirations)
	}
}

// TestLenSweepsExpiredSpilledEntries: the sweep must collect cooperatively
// cached entries through the cc path, draining the giver and dissolving the
// association.
func TestLenSweepsExpiredSpilledEntries(t *testing.T) {
	var clk clock.Manual
	clk.Advance(1)
	c := coupledCache(t, &clk)
	spillOne(t, c, time.Second)

	live := c.Len()
	clk.Advance(2 * time.Second)
	if got := c.Len(); got != live-5 {
		t.Fatalf("Len after TTL = %d, want %d (all 5 TTL'd entries swept)", got, live-5)
	}
	st := c.Stats()
	if st.Expirations != 5 {
		t.Fatalf("Expirations = %d, want 5", st.Expirations)
	}
	if st.Decouplings != 1 {
		t.Fatalf("Decouplings = %d, want 1 (giver drained by the sweep)", st.Decouplings)
	}
}

// TestDeleteReportsPresenceOfSpilledEntry: DEL's wire status depends on
// Delete finding entries that live in the coupled giver set.
func TestDeleteReportsPresenceOfSpilledEntry(t *testing.T) {
	c := coupledCache(t, nil)
	spilled := spillOne(t, c, 0)

	if v, ok := c.Get(spilled); !ok || v != spilled/c.sets {
		t.Fatalf("Get(%d) = %v, %v; want spilled value via secondary probe", spilled, v, ok)
	}
	if st := c.Stats(); st.SecondaryHits != 1 {
		t.Fatalf("SecondaryHits = %d, want 1", st.SecondaryHits)
	}
	if !c.Delete(spilled) {
		t.Fatalf("Delete(%d) = false for a resident spilled entry", spilled)
	}
	if c.Delete(spilled) {
		t.Fatalf("second Delete(%d) = true", spilled)
	}
	if _, ok := c.Get(spilled); ok {
		t.Fatalf("Get(%d) found a deleted entry", spilled)
	}
	st := c.Stats()
	if st.Deletes != 1 {
		t.Fatalf("Deletes = %d, want 1", st.Deletes)
	}
	if st.Decouplings != 1 {
		t.Fatalf("Decouplings = %d, want 1 (deleting the last cc entry drains the giver)", st.Decouplings)
	}
}

// TestDeleteOfExpiredSpilledEntryReportsAbsent: an expired cc entry counts
// as absent and is collected, not deleted.
func TestDeleteOfExpiredSpilledEntryReportsAbsent(t *testing.T) {
	var clk clock.Manual
	clk.Advance(1)
	c := coupledCache(t, &clk)
	spilled := spillOne(t, c, time.Second)

	clk.Advance(2 * time.Second)
	if c.Delete(spilled) {
		t.Fatalf("Delete(%d) = true for an expired spilled entry", spilled)
	}
	st := c.Stats()
	if st.Deletes != 0 {
		t.Fatalf("Deletes = %d, want 0", st.Deletes)
	}
	if st.Expirations != 1 {
		t.Fatalf("Expirations = %d, want 1 (expired cc entry collected by the probe)", st.Expirations)
	}
}

func TestGetOrSetBasics(t *testing.T) {
	c := mustNew[string, int](Config{Capacity: 64, Shards: 1, Seed: 1})

	v, loaded := c.GetOrSet("k", 1)
	if loaded || v != 1 {
		t.Fatalf("first GetOrSet = (%d, %v), want (1, false)", v, loaded)
	}
	v, loaded = c.GetOrSet("k", 2)
	if !loaded || v != 1 {
		t.Fatalf("second GetOrSet = (%d, %v), want (1, true)", v, loaded)
	}
	st := c.Stats()
	if st.Gets != 2 || st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats %+v: want Gets=2 Hits=1 Misses=1 Puts=1", st)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

// TestGetOrSetExpiredReinserts: a resident-but-expired entry loses the race
// — GetOrSet must treat it as absent and store the new value.
func TestGetOrSetExpiredReinserts(t *testing.T) {
	var clk clock.Manual
	clk.Advance(1)
	c := mustNew[string, int](Config{Capacity: 64, Shards: 1, Seed: 1, Clock: &clk})

	c.SetWithTTL("k", 1, time.Second)
	clk.Advance(2 * time.Second)
	v, loaded := c.GetOrSet("k", 2)
	if loaded || v != 2 {
		t.Fatalf("GetOrSet after expiry = (%d, %v), want (2, false)", v, loaded)
	}
	if got, ok := c.Get("k"); !ok || got != 2 {
		t.Fatalf("Get after reinsert = (%d, %v), want (2, true)", got, ok)
	}
}

// TestGetOrSetWithTTLKeepsResidentTTL: loading an existing entry must not
// rewrite its expiry.
func TestGetOrSetWithTTLKeepsResidentTTL(t *testing.T) {
	var clk clock.Manual
	clk.Advance(1)
	c := mustNew[string, int](Config{Capacity: 64, Shards: 1, Seed: 1, Clock: &clk})

	c.SetWithTTL("k", 1, 10*time.Second)
	if _, loaded := c.GetOrSetWithTTL("k", 2, time.Second); !loaded {
		t.Fatal("GetOrSetWithTTL missed a resident entry")
	}
	clk.Advance(2 * time.Second) // past the 1s it must NOT have applied
	if _, ok := c.Get("k"); !ok {
		t.Fatal("resident entry's TTL was shortened by a losing GetOrSetWithTTL")
	}
	clk.Advance(10 * time.Second)
	if _, ok := c.Get("k"); ok {
		t.Fatal("entry survived its original TTL")
	}
}

// TestGetOrSetFindsSpilledEntry: the loaded report must be exact for
// entries resident in the coupled giver set.
func TestGetOrSetFindsSpilledEntry(t *testing.T) {
	c := coupledCache(t, nil)
	spilled := spillOne(t, c, 0)

	v, loaded := c.GetOrSet(spilled, -1)
	if !loaded || v != spilled/c.sets {
		t.Fatalf("GetOrSet(%d) = (%d, %v), want spilled value via secondary probe", spilled, v, loaded)
	}
	st := c.Stats()
	if st.SecondaryHits != 1 {
		t.Fatalf("SecondaryHits = %d, want 1", st.SecondaryHits)
	}
	if st.Puts != 5 {
		t.Fatalf("Puts = %d, want 5 (a loading GetOrSet must not count a Put)", st.Puts)
	}
}

// TestGetOrSetDeterminism: a fixed-seed GetOrSet loop is bit-reproducible,
// like every other operation.
func TestGetOrSetDeterminism(t *testing.T) {
	run := func() Stats {
		c := mustNew[int, int](Config{Capacity: 512, Shards: 2, Ways: 4, Seed: 7})
		for i := 0; i < 20_000; i++ {
			c.GetOrSet((i*13)%1500, i)
		}
		return c.Stats()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("GetOrSet runs diverged:\n%+v\n%+v", a, b)
	}
}
