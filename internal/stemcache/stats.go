package stemcache

import "repro/internal/obs"

// Stats aggregates a Cache's counters. It is a flat comparable struct, so
// two runs can be compared with ==; Hits/Misses tally Get outcomes only
// (stores and deletes are counted separately), which makes
// HitRate the figure the benchmarks report.
type Stats struct {
	// Gets is the number of Get calls; Gets == Hits + Misses.
	Gets uint64
	// Hits counts Gets that found an unexpired entry (locally or in a
	// coupled giver set).
	Hits uint64
	// Misses counts Gets that found nothing.
	Misses uint64
	// Puts is the number of Set/SetWithTTL calls (inserts and overwrites).
	Puts uint64
	// Deletes counts Delete calls that removed a resident entry.
	Deletes uint64
	// Evictions counts entries dropped from the cache by capacity pressure
	// (spilled entries are moved, not evicted, and are not counted here).
	Evictions uint64
	// Expirations counts entries collected lazily after their TTL passed:
	// by an operation that touched the key, by an insert that reused the
	// dead entry's way instead of evicting a live one, or by Len's sweep.
	Expirations uint64
	// SecondaryHits counts Get hits served from a coupled giver set
	// (a subset of Hits) — capacity the spatial mechanism recovered.
	SecondaryHits uint64
	// ShadowHits counts misses whose signature was present in the set's
	// shadow directory: the paper's "this set would have hit with more
	// capacity or the opposite policy" evidence.
	ShadowHits uint64
	// PolicySwaps counts set-level LRU<->BIP swaps (temporal management).
	PolicySwaps uint64
	// Couplings counts taker-giver pairs formed (spatial management).
	Couplings uint64
	// Decouplings counts pairs dissolved after the giver drained.
	Decouplings uint64
	// Spills counts victims placed cooperatively instead of evicted.
	Spills uint64
	// Receives counts entries accepted by giver sets; equals Spills.
	Receives uint64

	// The three fields below are instantaneous set-role gauges, not
	// monotonic counters: each Stats() call recomputes them from the live
	// SCDM state (deterministically, for a deterministic op history). They
	// ride in Stats so the STATS wire path exports them without a second
	// message.

	// TakerSets counts sets whose SC_S is saturated right now — the sets
	// the spatial mechanism classifies as capacity takers.
	TakerSets uint64
	// GiverSets counts sets whose SC_S MSB is clear right now — sets with
	// spare capacity the spatial mechanism may lend out. A fresh cache
	// reports every set here (SC_S starts at zero).
	GiverSets uint64
	// CoupledSets counts sets currently in a taker-giver association
	// (both ends counted).
	CoupledSets uint64
}

// HitRate returns Hits/Gets, or 0 for a cache that has seen no Gets.
func (s Stats) HitRate() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Gets)
}

// add accumulates o into s (used by the per-shard aggregation).
func (s *Stats) add(o Stats) {
	s.Gets += o.Gets
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Puts += o.Puts
	s.Deletes += o.Deletes
	s.Evictions += o.Evictions
	s.Expirations += o.Expirations
	s.SecondaryHits += o.SecondaryHits
	s.ShadowHits += o.ShadowHits
	s.PolicySwaps += o.PolicySwaps
	s.Couplings += o.Couplings
	s.Decouplings += o.Decouplings
	s.Spills += o.Spills
	s.Receives += o.Receives
	s.TakerSets += o.TakerSets
	s.GiverSets += o.GiverSets
	s.CoupledSets += o.CoupledSets
}

// registerMetrics exports c through reg: every monotonic Stats field as a
// counter — the one place a "stemcache.*" name is defined — read off one Stats
// call per scrape. A nil reg registers nothing.
func (c *Cache[K, V]) registerMetrics(reg *obs.Registry) {
	reg.CounterFuncs(func(emit func(name string, v uint64)) {
		st := c.Stats()
		emit("stemcache.gets", st.Gets)
		emit("stemcache.hits", st.Hits)
		emit("stemcache.misses", st.Misses)
		emit("stemcache.puts", st.Puts)
		emit("stemcache.deletes", st.Deletes)
		emit("stemcache.evictions", st.Evictions)
		emit("stemcache.expirations", st.Expirations)
		emit("stemcache.secondary_hits", st.SecondaryHits)
		emit("stemcache.shadow_hits", st.ShadowHits)
		emit("stemcache.policy_swaps", st.PolicySwaps)
		emit("stemcache.couplings", st.Couplings)
		emit("stemcache.decouplings", st.Decouplings)
		emit("stemcache.spills", st.Spills)
		emit("stemcache.receives", st.Receives)
	})
}
