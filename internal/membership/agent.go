package membership

import (
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/wire"
)

// Agent is one node's membership data plane. It installs itself as the
// node server's Hooks and from then on:
//
//   - fans every write the node applies as a slot owner out to the slot's
//     replicas (server.Replicator), synchronously before the ack — the
//     invariant failover's losslessness rests on;
//   - applies pushed membership views (server.MembershipHandler), dialing
//     peers for new members and dropping the ones that left or died;
//   - read-repairs GET misses on slots the node acquired through failover
//     promotion or migration by asking the slot's other replicas
//     (server.Hooks.ReadRepair).
//
// Views are epoch-ordered: a replayed or reordered push at or below the
// held epoch is ignored, so redelivery is harmless.
//
// Safe for concurrent use (the server calls the hooks from its connection
// goroutines). Agent.mu is the membership package's innermost lock and is
// never held across a network call — peer snapshots are taken under it,
// the wire work happens outside.
type Agent struct {
	self int
	ring *cluster.Ring
	srv  *server.Server
	tpl  client.Config

	// mu guards the view state below.
	//lint:rank 1
	mu       sync.Mutex
	epoch    uint64
	members  []wire.Member
	replicas [][]int
	// peers[n] is a lazily dialed client to member n; nil for self and for
	// members that are gone (or not yet seen).
	peers []*client.Client
	// repair[s] marks slot s for miss-time read repair: set when a view
	// makes this node s's owner after some other node held it, because
	// writes from before this node entered s's replica set live only on
	// the other replicas.
	repair []bool
}

// NewAgent builds node self's agent and installs its hooks on srv. The
// ring is shared cluster-wide (key→slot hashing and current ownership);
// tpl is the connection template for dialing peers (Addr overwritten per
// peer).
func NewAgent(self int, ring *cluster.Ring, srv *server.Server, tpl client.Config) *Agent {
	a := &Agent{self: self, ring: ring, srv: srv, tpl: tpl}
	srv.SetHooks(&server.Hooks{Replicator: a, Membership: a, ReadRepair: a.readRepair})
	return a
}

// Epoch returns the view epoch the agent holds (0 before the first push).
func (a *Agent) Epoch() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.epoch
}

// Close uninstalls the hooks and releases the peer connections.
func (a *Agent) Close() error {
	a.srv.SetHooks(nil)
	a.mu.Lock()
	peers := a.peers
	a.peers = nil
	a.mu.Unlock()
	var first error
	for _, p := range peers {
		if p == nil {
			continue
		}
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Update applies one pushed membership view (server.MembershipHandler).
func (a *Agent) Update(epoch uint64, members []wire.Member, replicas []wire.ReplicaSet) error {
	a.mu.Lock()
	if epoch <= a.epoch {
		a.mu.Unlock()
		return nil // stale or replayed view
	}

	oldOwners := a.ownerTableLocked()
	a.epoch = epoch
	a.members = members
	table := make([][]int, a.ring.Slots())
	for _, rs := range replicas {
		if int(rs.Slot) >= len(table) {
			continue
		}
		set := make([]int, len(rs.Replicas))
		for i, n := range rs.Replicas {
			set[i] = int(n)
		}
		table[rs.Slot] = set
	}
	a.replicas = table

	// Reconcile peers: dial new serving members, drop departed ones. The
	// constructor does not connect (client.New is lazy), so holding mu here
	// is lock work only.
	var closing []*client.Client
	for len(a.peers) < len(members) {
		a.peers = append(a.peers, nil)
	}
	for i := range members {
		id := int(members[i].ID)
		if id < 0 || id >= len(a.peers) || id == a.self {
			continue
		}
		if members[i].State == wire.MemberAlive {
			if a.peers[id] == nil {
				cfg := a.tpl
				cfg.Addr = members[i].Addr
				if p, err := client.New(cfg); err == nil {
					a.peers[id] = p
				}
			}
		} else if a.peers[id] != nil {
			closing = append(closing, a.peers[id])
			a.peers[id] = nil
		}
	}

	// Mark newly acquired slots for read repair (see the repair field).
	if a.repair == nil {
		a.repair = make([]bool, len(table))
	}
	for s, set := range table {
		if len(set) > 0 && set[0] == a.self && oldOwners != nil && s < len(oldOwners) && oldOwners[s] != a.self && oldOwners[s] >= 0 {
			a.repair[s] = true
		}
	}
	a.mu.Unlock()

	for _, p := range closing {
		p.Close()
	}
	return nil
}

// ownerTableLocked extracts the held view's slot→owner table (nil before
// the first view). Caller holds a.mu.
func (a *Agent) ownerTableLocked() []int {
	if a.replicas == nil {
		return nil
	}
	owners := make([]int, len(a.replicas))
	for s, set := range a.replicas {
		owners[s] = -1
		if len(set) > 0 {
			owners[s] = set[0]
		}
	}
	return owners
}

// followersOf snapshots the peers to fan a write on slot out to, or nil
// when this node is not the slot's current owner. Ring ownership (shared,
// authoritative) gates the fan-out so a write from a client with a stale
// ring, landing on a non-owner, is not re-fanned; the pushed view supplies
// the follower set.
func (a *Agent) followersOf(slot int) []*client.Client {
	if a.ring.Owner(slot) != a.self {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.replicas == nil || slot >= len(a.replicas) {
		return nil
	}
	var out []*client.Client
	for _, n := range a.replicas[slot] {
		if n != a.self && n < len(a.peers) && a.peers[n] != nil {
			out = append(out, a.peers[n])
		}
	}
	return out
}

// ReplicateSet fans one applied store out to the slot's replicas
// (server.Replicator). Best effort: a dead replica's copy is restored by
// the manager's backfill at the next view change.
func (a *Agent) ReplicateSet(key string, value []byte, ttl time.Duration) {
	for _, p := range a.followersOf(a.ring.SlotOfKey(key)) {
		_ = p.Replicate(key, value, ttl)
	}
}

// ReplicateDelete fans one applied delete out to the slot's replicas
// (server.Replicator).
func (a *Agent) ReplicateDelete(key string) {
	for _, p := range a.followersOf(a.ring.SlotOfKey(key)) {
		_ = p.ReplicateDelete(key)
	}
}

// readRepair serves a GET miss on a repair-marked slot by asking the
// slot's other replicas (server.Hooks.ReadRepair). Misses on unmarked
// slots — the overwhelming majority — pay one mutex acquisition and leave.
func (a *Agent) readRepair(key string) ([]byte, bool) {
	slot := a.ring.SlotOfKey(key)
	a.mu.Lock()
	if a.repair == nil || slot >= len(a.repair) || !a.repair[slot] {
		a.mu.Unlock()
		return nil, false
	}
	var peers []*client.Client
	for _, n := range a.replicas[slot] {
		if n != a.self && n < len(a.peers) && a.peers[n] != nil {
			peers = append(peers, a.peers[n])
		}
	}
	a.mu.Unlock()

	for _, p := range peers {
		if v, found, err := p.Get(key); err == nil && found {
			return v, true
		}
	}
	return nil, false
}
