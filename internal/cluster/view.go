package cluster

import (
	"fmt"

	"repro/internal/wire"
)

// View is one holder's copy of the cluster's ownership record: the epoch,
// the member table (member i is node i), and every slot's replica set,
// owner first. The membership manager writes views; every node's agent and
// every Client holds the newest one it has been pushed or answered with. A
// View is immutable once built: a holder replaces it, never changes it.
type View struct {
	Epoch   uint64
	Members []wire.Member
	// Replicas[s] lists slot s's replica nodes, owner first.
	Replicas [][]int
}

// InitialView is the epoch-0 view of a cluster whose node i serves at
// addrs[i]: every node alive, every slot owned by its home node
// (Ring.Lookup) and held by it alone.
func (r *Ring) InitialView(addrs []string) *View {
	v := &View{Members: make([]wire.Member, len(addrs)), Replicas: make([][]int, r.slots)}
	for i, addr := range addrs {
		v.Members[i] = wire.Member{ID: uint32(i), State: wire.MemberAlive, Addr: addr}
	}
	for s := range v.Replicas {
		v.Replicas[s] = []int{s % r.nodes}
	}
	return v
}

// Owner returns slot's owning node.
func (v *View) Owner(slot int) int { return v.Replicas[slot][0] }

// Owners returns every slot's owner, indexed by slot.
func (v *View) Owners() []int {
	owners := make([]int, len(v.Replicas))
	for s := range owners {
		owners[s] = v.Owner(s)
	}
	return owners
}

// Alive reports whether node is a serving member.
func (v *View) Alive(node int) bool {
	return node >= 0 && node < len(v.Members) && v.Members[node].State == wire.MemberAlive
}

// Wire is the view as it travels; a nil view travels as no view.
func (v *View) Wire() wire.View {
	if v == nil {
		return wire.View{}
	}
	sets := make([]wire.ReplicaSet, len(v.Replicas))
	for s, set := range v.Replicas {
		sets[s] = wire.ReplicaSet{Slot: uint32(s), Replicas: make([]uint32, len(set))}
		for i, n := range set {
			sets[s].Replicas[i] = uint32(n)
		}
	}
	return wire.View{Epoch: v.Epoch, Members: v.Members, Replicas: sets}
}

// ParseView checks a view that arrived on the wire — at least one slot,
// one replica set per slot in slot order, each naming an owner and only
// members (member i is node i, whatever its ID field says) — and returns
// it as a View. The slot count is the view's own: a holder hashes keys
// modulo it (Ring.SlotOf), so a view with no slots is refused.
func ParseView(w wire.View) (*View, error) {
	if len(w.Replicas) == 0 {
		return nil, fmt.Errorf("cluster: view %d has no slots", w.Epoch)
	}
	v := &View{Epoch: w.Epoch, Members: w.Members, Replicas: make([][]int, len(w.Replicas))}
	for s, rs := range w.Replicas {
		if int(rs.Slot) != s || len(rs.Replicas) == 0 {
			return nil, fmt.Errorf("cluster: view %d: row %d is slot %d with %d replicas", w.Epoch, s, rs.Slot, len(rs.Replicas))
		}
		set := make([]int, len(rs.Replicas))
		for i, n := range rs.Replicas {
			if int(n) >= len(w.Members) {
				return nil, fmt.Errorf("cluster: view %d: slot %d names node %d of %d members", w.Epoch, s, n, len(w.Members))
			}
			set[i] = int(n)
		}
		v.Replicas[s] = set
	}
	return v, nil
}
