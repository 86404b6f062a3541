package experiments

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workloads"
)

// goldenStats is sim.Stats under a local name, so the golden table can list the
// twelve counters positionally, in sim.Stats' field order.
type goldenStats sim.Stats

// Golden determinism: with fixed seeds, every scheme's exact counters on a
// small fixed configuration are locked — hits and misses, secondary probes,
// writebacks and every mechanism count. Any unintended behavioural change to
// a scheme, a policy, the RNG, or the workload generators trips this test;
// intentional changes must regenerate the constants (see the comment at the
// bottom).
func TestGoldenMissCounts(t *testing.T) {
	cfg := RunConfig{
		Geom:    sim.Geometry{Sets: 128, Ways: 16, LineSize: 64},
		Warmup:  50_000,
		Measure: 150_000,
	}
	// Accesses, Hits, Misses, SecondaryHits, SecondaryRefs, Writebacks,
	// Spills, Receives, PolicySwaps, Couplings, Decouplings, ShadowHits.
	golden := map[string]map[string]goldenStats{
		"omnetpp": {
			"LRU":    {150000, 31187, 118813, 0, 0, 39624, 0, 0, 0, 0, 0, 0},
			"DIP":    {150000, 87531, 62469, 0, 0, 21810, 0, 0, 0, 0, 0, 0},
			"PELIFO": {150000, 87902, 62098, 0, 0, 20611, 0, 0, 0, 0, 0, 0},
			"VWAY":   {150000, 71682, 78318, 0, 0, 30163, 0, 0, 0, 0, 0, 0},
			"SBC":    {150000, 63279, 86721, 22479, 81030, 36275, 58551, 58551, 0, 0, 0, 0},
			"STEM":   {150000, 108497, 41503, 25836, 54767, 16850, 2031, 2031, 398, 12, 12, 33035},
			"SRRIP":  {150000, 37433, 112567, 0, 0, 37643, 0, 0, 0, 0, 0, 0},
			"DRRIP":  {150000, 85436, 64564, 0, 0, 21642, 0, 0, 0, 0, 0, 0},
			"SKEW":   {150000, 105122, 44878, 0, 0, 19416, 0, 0, 0, 0, 0, 0},
		},
		"ammp": {
			"LRU":    {150000, 86139, 63861, 0, 0, 25074, 0, 0, 0, 0, 0, 0},
			"DIP":    {150000, 85310, 64690, 0, 0, 25153, 0, 0, 0, 0, 0, 0},
			"PELIFO": {150000, 86139, 63861, 0, 0, 25075, 0, 0, 0, 0, 0, 0},
			"VWAY":   {150000, 86139, 63861, 0, 0, 25045, 0, 0, 0, 0, 0, 0},
			"SBC":    {150000, 85009, 64991, 0, 35756, 25364, 35756, 35756, 0, 0, 0, 0},
			"STEM":   {150000, 99044, 50956, 4757, 27476, 21871, 5506, 5506, 0, 0, 0, 1131},
			"SRRIP":  {150000, 86139, 63861, 0, 0, 25074, 0, 0, 0, 0, 0, 0},
			"DRRIP":  {150000, 86139, 63861, 0, 0, 25074, 0, 0, 0, 0, 0, 0},
			"SKEW":   {150000, 114966, 35034, 0, 0, 17701, 0, 0, 0, 0, 0, 0},
		},
		"mcf": {
			"LRU":    {150000, 1820, 148180, 0, 0, 40625, 0, 0, 0, 0, 0, 0},
			"DIP":    {150000, 57142, 92858, 0, 0, 26417, 0, 0, 0, 0, 0, 0},
			"PELIFO": {150000, 57643, 92357, 0, 0, 25114, 0, 0, 0, 0, 0, 0},
			"VWAY":   {150000, 2460, 147540, 0, 0, 40560, 0, 0, 0, 0, 0, 0},
			"SBC":    {150000, 1820, 148180, 0, 0, 40625, 0, 0, 0, 0, 0, 0},
			"STEM":   {150000, 55885, 94115, 4498, 32038, 28323, 22673, 22673, 868, 401, 394, 43008},
			"SRRIP":  {150000, 5772, 144228, 0, 0, 39596, 0, 0, 0, 0, 0, 0},
			"DRRIP":  {150000, 53881, 96119, 0, 0, 26592, 0, 0, 0, 0, 0, 0},
			"SKEW":   {150000, 52422, 97578, 0, 0, 28627, 0, 0, 0, 0, 0, 0},
		},
		"twolf": {
			"LRU":    {150000, 131589, 18411, 0, 0, 9425, 0, 0, 0, 0, 0, 0},
			"DIP":    {150000, 131589, 18411, 0, 0, 9425, 0, 0, 0, 0, 0, 0},
			"PELIFO": {150000, 131589, 18411, 0, 0, 9428, 0, 0, 0, 0, 0, 0},
			"VWAY":   {150000, 128379, 21621, 0, 0, 10839, 0, 0, 0, 0, 0, 0},
			"SBC":    {150000, 131589, 18411, 0, 0, 9425, 0, 0, 0, 0, 0, 0},
			"STEM":   {150000, 131589, 18411, 0, 0, 9425, 0, 0, 0, 0, 0, 0},
			"SRRIP":  {150000, 131589, 18411, 0, 0, 9425, 0, 0, 0, 0, 0, 0},
			"DRRIP":  {150000, 131589, 18411, 0, 0, 9425, 0, 0, 0, 0, 0, 0},
			"SKEW":   {150000, 122380, 27620, 0, 0, 14171, 0, 0, 0, 0, 0, 0},
		},
	}
	for bn, schemes := range golden {
		b, err := workloads.ByName(bn)
		if err != nil {
			t.Fatal(err)
		}
		for sc, want := range schemes {
			r, err := RunWorkload(b.Workload, sc, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r.Stats != sim.Stats(want) {
				t.Errorf("%s/%s: %+v, golden %+v — behaviour changed; if intended, regenerate the golden table",
					bn, sc, r.Stats, sim.Stats(want))
			}
		}
	}
}

// To regenerate: print r.Stats' fields for each (benchmark, scheme) pair at
// the config above and paste the values into the golden map.
