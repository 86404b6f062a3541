package stemcache

// Demand is the node-level aggregate of the cache's per-set SCDM state: the
// same evidence the spatial mechanism uses to couple taker sets with giver
// sets inside a shard, rolled up so that a tier above the cache (the cluster
// rebalancer in internal/cluster) can apply the paper's giver/taker
// reasoning across whole nodes. A node whose sets are mostly takers is
// starved for capacity; a node whose sets are mostly givers has slack.
//
// The snapshot is taken one shard at a time (each under its own lock), so
// under concurrent writers the totals are consistent per shard, not
// globally. For a deterministic op history it is fully deterministic.
type Demand struct {
	// Sets is the total number of sets (Shards × sets-per-shard).
	Sets int
	// TakerSets counts sets whose SC_S is saturated (core.Monitor.IsTaker).
	TakerSets int
	// GiverSets counts sets whose SC_S MSB is clear (core.Monitor.IsGiver).
	// A fresh cache reports every set here: SC_S starts at zero.
	GiverSets int
	// CoupledSets counts sets currently in a taker-giver association
	// (both ends counted).
	CoupledSets int
	// ScSSum is the sum of every set's SC_S counter value.
	ScSSum uint64
	// ScSMax is the saturation denominator: Sets × (2^CounterBits − 1).
	// ScSSum/ScSMax is the cache's mean spatial-counter saturation.
	ScSMax uint64
	// Live is the number of resident entries at snapshot time (expired but
	// unswept entries may still be counted; Len sweeps, Demand does not —
	// a demand poll must not perturb eviction state).
	Live int
	// Capacity is the cache's normalized entry capacity.
	Capacity int
}

// TakerFrac returns the fraction of sets currently classified as takers,
// in [0, 1].
func (d Demand) TakerFrac() float64 {
	if d.Sets == 0 {
		return 0
	}
	return float64(d.TakerSets) / float64(d.Sets)
}

// Saturation returns the mean SC_S saturation across sets, in [0, 1]: 0
// means every spatial counter is at rest, 1 means every set's counter is
// pinned at its maximum.
func (d Demand) Saturation() float64 {
	if d.ScSMax == 0 {
		return 0
	}
	return float64(d.ScSSum) / float64(d.ScSMax)
}

// Demand aggregates the per-set capacity-demand monitors into one node-level
// signal. Unlike Len it does not sweep expired entries: polling demand must
// not change what the mechanisms will do next.
func (c *Cache[K, V]) Demand() Demand {
	d := Demand{Capacity: c.Capacity(), Sets: len(c.shards) * c.sets}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st, cen := sh.snapshot()
		d.Live += sh.live
		sh.mu.Unlock()
		d.TakerSets += int(st.TakerSets)
		d.GiverSets += int(st.GiverSets)
		d.CoupledSets += int(st.CoupledSets)
		d.ScSSum += cen.ScSSum
		d.ScSMax += cen.ScSMax
	}
	return d
}

// AppendKeys appends every resident, unexpired key to dst and returns the
// extended slice — the enumeration the cluster tier's slot handoff uses to
// find the keys that must migrate with a virtual-node slot. Cooperatively
// cached entries are included (they are resident keys like any other).
// Shards are locked one at a time, so under concurrent writers the listing
// is consistent per shard, not globally; expired entries are skipped but
// not collected (enumeration must not perturb eviction state).
func (c *Cache[K, V]) AppendKeys(dst []K) []K {
	nowN := c.now()
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for w := range sh.entries {
			if e := &sh.entries[w]; e.valid && (e.exp == 0 || nowN <= e.exp) {
				dst = append(dst, e.key)
			}
		}
		sh.mu.Unlock()
	}
	return dst
}
