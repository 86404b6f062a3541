//go:build !race

package membership_test

import (
	"testing"

	"repro/internal/wire"
)

// TestViewFetchAllocatesNothing: a fetch, the epoch-0 VIEW every MOVED
// answer and every client refresh makes of an agent, answers with the held
// view itself. On the wide rig (48 slots, RF 2) Agent.Update(wire.View{})
// allocates nothing; copying the view into another form cost one
// allocation plus one per slot.
func TestViewFetchAllocatesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("membership e2e drives loopback round trips")
	}
	agent := startWideRig(t).Agent(0)
	var held wire.View
	if n := testing.AllocsPerRun(100, func() { held, _ = agent.Update(wire.View{}) }); n != 0 {
		t.Errorf("Agent.Update(wire.View{}) allocates %v, want 0", n)
	}
	if held.Epoch == 0 || len(held.Replicas) != memNodes*wideVNodes {
		t.Fatalf("fetch answered view %d with %d slots, want the held view's %d", held.Epoch, len(held.Replicas), memNodes*wideVNodes)
	}
}
