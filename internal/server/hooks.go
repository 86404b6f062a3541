package server

import (
	"errors"
	"time"

	"repro/internal/wire"
)

// Membership is the cluster-integration point a membership agent installs
// on a running server (SetMembership): it holds the node's view, routes
// keyed operations by it and fans the node's writes out to their
// replicas. The server calls it synchronously on the connection
// goroutine, before the response is written; every key it hands a method
// may alias the connection's read buffer, valid during the call only.
// Implementations must not call back into this server.
type Membership interface {
	// Update applies one pushed membership view and returns the view held
	// after it. Epochs order views, and an implementation must ignore a
	// view at or below the epoch it holds, so a push at epoch 0 only
	// fetches. The pushed view is owned by the callee, and the returned
	// one must not be changed by the caller.
	Update(v wire.View) (wire.View, error)
	// Serves reports whether the node answers an operation on key under
	// its held view: a write needs the node to own key's slot, a read to
	// be one of the slot's replicas. Holding no view, it serves every key.
	// One it does not serve is answered StatusMoved with the held view.
	Serves(key string, write bool) bool
	// ReplicateSet fans out one applied store, before it is acked — so an
	// acknowledged write has already been offered to the slot's replicas,
	// which is what lets failover promote a replica without losing acked
	// writes (one node failure with replication factor 2; RF-1 failures in
	// general). ttl <= 0 means the default TTL. Best effort: a failed
	// fan-out is counted by the implementation and repaired by the
	// membership manager's re-replication, not by failing the client's
	// write.
	ReplicateSet(key string, value []byte, ttl time.Duration)
	// ReplicateDelete fans out one applied delete — also for keys the
	// cache did not hold, since a follower may still hold what the owner
	// evicted.
	ReplicateDelete(key string)
}

// standalone is the Membership of a server with none installed: it routes
// nothing (handle does not ask it), refuses view pushes and fans nothing
// out.
type standalone struct{}

var errNoMembership = errors.New("no membership agent")

func (standalone) Update(wire.View) (wire.View, error)        { return wire.View{}, errNoMembership }
func (standalone) Serves(string, bool) bool                   { return true }
func (standalone) ReplicateSet(string, []byte, time.Duration) {}
func (standalone) ReplicateDelete(string)                     {}

// SetMembership installs (or, with nil, removes) the node's membership
// agent. Safe to call while the server is serving: a request in flight sees
// the old agent or the new one, never a mix.
func (s *Server) SetMembership(m Membership) {
	if m == nil {
		s.membership.Store(nil)
		return
	}
	s.membership.Store(&m)
}

// handleView answers OpView by delegating the pushed view to the node's
// membership and answering with the view it holds.
func (s *Server) handleView(m Membership, req *wire.Request, resp *wire.Response) {
	held, err := m.Update(req.View)
	if err != nil {
		resp.Status = wire.StatusErr
		resp.Value = []byte(err.Error())
		return
	}
	resp.View = held
}

// routed reports whether the node serves req's keys under its membership
// view; when it does not, resp becomes a StatusMoved answer carrying the
// view. Writes (SET, SETTTL, DEL, MSET) need the keys' owner, reads (GET,
// MGET) one of their replicas; every other op — REPLICATE and VIEW among
// them, which is how the manager's slot copies and pushes get through —
// is not routed.
func (s *Server) routed(m Membership, req *wire.Request, resp *wire.Response) bool {
	ok := true
	switch req.Op {
	case wire.OpGet:
		ok = m.Serves(req.Key, false)
	case wire.OpSet, wire.OpSetTTL, wire.OpDel:
		ok = m.Serves(req.Key, true)
	case wire.OpMGet:
		for _, k := range req.Keys {
			ok = ok && m.Serves(k, false)
		}
	case wire.OpMSet:
		for _, kv := range req.Pairs {
			ok = ok && m.Serves(kv.Key, true)
		}
	}
	if !ok {
		resp.Status = wire.StatusMoved
		resp.View, _ = m.Update(wire.View{})
	}
	return ok
}
