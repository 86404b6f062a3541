package membership

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/stemcache"
	"repro/internal/wire"
)

// ApplyMoves runs a fixed plan through apply, the executor every
// transition uses, and commits it the same way. It lets the package's
// external tests place a move no join, leave or failover plans on its own.
func (m *Manager) ApplyMoves(plan ...cluster.Move) (Report, error) {
	return m.apply(Report{Node: -1}, plan, -1)
}

// TestTickRecordsDemand: one Tick heartbeats every serving member and
// records the demand snapshot it answers with in m.demand — the one path
// node demand reaches the manager by — and replica placement's giver
// fraction reads that snapshot.
func TestTickRecordsDemand(t *testing.T) {
	const nodes = 3
	rig, err := StartRig(nodes,
		cluster.NodeConfig{Cache: stemcache.Config{Capacity: 1024, Shards: 2, Ways: 4}},
		cluster.Config{VNodes: 4, Seed: 33, Client: client.Config{Retries: -1, DialTimeout: 500 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rig.Close)
	if err := rig.Bootstrap(Config{ReplicationFactor: 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		if err := rig.Client().Set(fmt.Sprintf("demand-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	m := rig.Manager()
	for i, d := range m.demand {
		if d != (wire.NodeDemand{}) {
			t.Fatalf("node %d has demand %+v before any heartbeat", i, d)
		}
	}

	if reps := m.Tick(); len(reps) != 0 {
		t.Fatalf("Tick on a healthy rig failed over: %+v", reps)
	}
	for i := 0; i < nodes; i++ {
		d := rig.Node(i).Cache().Demand()
		want := wire.NodeDemand{
			NodeID: uint32(i), Sets: uint32(d.Sets), TakerSets: uint32(d.TakerSets),
			GiverSets: uint32(d.GiverSets), CoupledSets: uint32(d.CoupledSets),
			ScSSum: d.ScSSum, ScSMax: d.ScSMax, Live: uint64(d.Live), Capacity: uint64(d.Capacity),
		}
		if m.demand[i] != want {
			t.Errorf("node %d: Tick recorded %+v, its cache reads %+v", i, m.demand[i], want)
		}
		if got, w := giverFrac(m.demand[i]), float64(d.GiverSets)/float64(d.Sets); d.Sets == 0 || got != w {
			t.Errorf("node %d: placement reads giver fraction %v, want %v (%d of %d sets)", i, got, w, d.GiverSets, d.Sets)
		}
	}
}
