package membership

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/wire"
)

// Agent is one node's membership data plane. It installs itself as the
// node server's server.Membership and from then on:
//
//   - holds the node's view (Update, Serves): it applies pushed views,
//     dialing peers for new members and dropping the ones that left or
//     died, and answers which keys the node serves — a write needs the
//     node to own the key's slot, a read to be one of its replicas — so
//     that the server answers every other keyed request StatusMoved;
//   - fans every write the node applies as a slot owner out to the slot's
//     replicas (ReplicateSet, ReplicateDelete), synchronously before the
//     ack — the invariant failover's losslessness rests on.
//
// A miss is answered from the node's own cache alone: no node asks
// another on a miss. A promoted or migrated-to owner already holds every
// acked write of its new slot — failover promotes a replica the fan-out
// kept, and a move copies the slot before it flips the owner.
//
// Views are epoch-ordered: a replayed or reordered push at or below the
// held epoch is ignored, so redelivery is harmless.
//
// Safe for concurrent use (the server calls it from its connection
// goroutines). Agent.mu is never held across a network call: peer
// snapshots are taken under it, the wire work happens outside.
type Agent struct {
	self int
	ring *cluster.Ring
	srv  *server.Server
	tpl  client.Config

	// view is the held view, nil before the first push; Serves reads it on
	// every keyed request, and Update replaces it under mu.
	view atomic.Pointer[wire.View]

	// mu guards peers and serializes Update.
	mu sync.Mutex
	// peers[n] is a lazily dialed client to member n; nil for self and for
	// members that are gone (or not yet seen).
	peers []*client.Client
}

// NewAgent builds node self's agent and installs it on srv. The
// ring is the cluster's key→slot hash; tpl is the connection template for
// dialing peers (Addr overwritten per peer).
func NewAgent(self int, ring *cluster.Ring, srv *server.Server, tpl client.Config) *Agent {
	a := &Agent{self: self, ring: ring, srv: srv, tpl: tpl}
	srv.SetMembership(a)
	return a
}

// Epoch returns the view epoch the agent holds (0 before the first push).
func (a *Agent) Epoch() uint64 {
	if v := a.view.Load(); v != nil {
		return v.Epoch
	}
	return 0
}

// Close uninstalls the agent and releases the peer connections.
func (a *Agent) Close() error {
	a.srv.SetMembership(nil)
	a.mu.Lock()
	peers := a.peers
	a.peers = nil
	a.mu.Unlock()
	for _, p := range peers {
		if p != nil {
			p.Close() // a client's Close cannot fail
		}
	}
	return nil
}

// Update applies one pushed view, whose shape the decoder has checked, and
// returns the view held after it (server.Membership); a view at or below
// the held epoch changes nothing, and one with another slot count than the
// held view's is refused: it would move every key the node holds to
// another slot. The agent keeps its own copy of the pushed struct, never
// the server's reused request, and answers a fetch with the held view
// itself.
func (a *Agent) Update(v wire.View) (wire.View, error) {
	a.mu.Lock()
	var held wire.View
	if old := a.view.Load(); old != nil {
		held = *old
	}
	var err error
	if v.Epoch > held.Epoch && held.Replicas != nil && len(v.Replicas) != len(held.Replicas) {
		err = fmt.Errorf("membership: view %d has %d slots, the held view %d", v.Epoch, len(v.Replicas), len(held.Replicas))
	}
	if v.Epoch <= held.Epoch || err != nil { // stale, replayed, a fetch, or refused
		a.mu.Unlock()
		return held, err
	}

	// Reconcile peers: dial new serving members, drop departed ones. The
	// constructor does not connect (client.New is lazy), so holding mu here
	// is lock work only.
	var closing []*client.Client
	for len(a.peers) < len(v.Members) {
		a.peers = append(a.peers, nil)
	}
	for id := range v.Members {
		switch {
		case id == a.self:
		case v.Alive(id) && a.peers[id] == nil:
			cfg := a.tpl
			cfg.Addr = v.Members[id].Addr
			if p, err := client.New(cfg); err == nil {
				a.peers[id] = p
			}
		case !v.Alive(id) && a.peers[id] != nil:
			closing = append(closing, a.peers[id])
			a.peers[id] = nil
		}
	}
	nv := v // only a stored view escapes: a fetch allocates nothing
	a.view.Store(&nv)
	a.mu.Unlock()

	for _, p := range closing {
		p.Close()
	}
	return v, nil
}

// Serves reports whether the node answers an operation on key under the
// held view (server.Membership): a write needs the node to own the
// key's slot, a read to hold one of its replicas. Before the first view
// it serves every key.
func (a *Agent) Serves(key string, write bool) bool {
	v, slot := a.slotOf(key)
	if v == nil {
		return true
	}
	if write {
		return v.Owner(slot) == a.self
	}
	return slices.Contains(v.Replicas[slot], a.self)
}

// slotOf returns the held view and key's slot in it; a nil view before
// the first push.
func (a *Agent) slotOf(key string) (*wire.View, int) {
	v := a.view.Load()
	if v == nil {
		return nil, 0
	}
	return v, a.ring.SlotOf(key, len(v.Replicas))
}

// peersOf snapshots the connected peers among key's slot's followers; none
// unless this node owns the slot in its view.
func (a *Agent) peersOf(key string) []*client.Client {
	v, slot := a.slotOf(key)
	if v == nil || v.Owner(slot) != a.self {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []*client.Client
	for _, n := range v.Replicas[slot] {
		if n != a.self && n < len(a.peers) && a.peers[n] != nil {
			out = append(out, a.peers[n])
		}
	}
	return out
}

// ReplicateSet fans one applied store out to the slot's followers
// (server.Membership); a node that does not own the slot in its view fans
// nothing out. Best effort: a dead replica's copy is restored by the
// manager's backfill at the next view change.
func (a *Agent) ReplicateSet(key string, value []byte, ttl time.Duration) {
	for _, p := range a.peersOf(key) {
		_ = p.Replicate(key, value, ttl)
	}
}

// ReplicateDelete fans one applied delete out to the slot's followers
// (server.Membership).
func (a *Agent) ReplicateDelete(key string) {
	for _, p := range a.peersOf(key) {
		_ = p.ReplicateDelete(key)
	}
}
