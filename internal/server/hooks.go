package server

import (
	"strings"
	"time"

	"repro/internal/wire"
)

// Replicator receives every write the server applies, synchronously on the
// connection goroutine and before the response is written — so an
// acknowledged write has already been offered to the slot's replicas, which
// is what lets failover promote a replica without losing acked writes (one
// node failure with replication factor 2; RF-1 failures in general).
// Implementations must not call back into this server.
type Replicator interface {
	// ReplicateSet fans out one applied store. ttl <= 0 means the default
	// TTL. Best effort: a failed fan-out is counted by the implementation
	// and repaired by the membership manager's re-replication, not by
	// failing the client's write.
	ReplicateSet(key string, value []byte, ttl time.Duration)
	// ReplicateDelete fans out one applied delete — also for keys the
	// cache did not hold, since a replica may hold what the owner lost.
	ReplicateDelete(key string)
}

// MembershipHandler holds the node's membership view: it receives OpView
// pushes, and it says which keys the node serves.
type MembershipHandler interface {
	// Update applies one pushed membership view and returns the view held
	// after it. Epochs order views, and an implementation must ignore a
	// view at or below the epoch it holds, so a push at epoch 0 only
	// fetches. The pushed view is owned by the callee, and the returned
	// one must not be changed by the caller.
	Update(v wire.View) (wire.View, error)
	// Serves reports whether the node answers an operation on key under
	// its held view: a write needs the node to own key's slot, a read to
	// be one of the slot's replicas. Holding no view, it serves every key.
	// The key may alias the connection's read buffer: valid during the
	// call only.
	Serves(key string, write bool) bool
}

// Hooks are the cluster-integration points a membership agent installs on a
// running server. They are bundled in one struct behind one atomic pointer
// so the hot path pays a single load to see a consistent set.
type Hooks struct {
	// Replicator, when non-nil, receives applied writes for replica
	// fan-out.
	Replicator Replicator
	// Membership, when non-nil, handles OpView pushes (without it they
	// answer StatusErr) and routes keyed operations: one on a key the node
	// does not serve answers StatusMoved with the held view.
	Membership MembershipHandler
	// ReadRepair, when non-nil, is consulted on a GET miss. If it returns
	// ok, the value is installed in the cache and served — the membership
	// agent uses this to pull entries a freshly promoted or migrated-to
	// owner may be missing from the slot's surviving replicas. The key may
	// alias the connection's read buffer: valid during the call only.
	ReadRepair func(key string) ([]byte, bool)
}

// SetHooks installs (or, with nil, removes) the cluster hooks. Safe to call
// while the server is serving: requests in flight see the old set or the
// new set, never a mix.
func (s *Server) SetHooks(h *Hooks) {
	s.hooks.Store(h)
}

// handleMembership answers OpView by delegating the pushed view to
// the installed membership handler and answering with the view it holds.
func (s *Server) handleMembership(h *Hooks, req *wire.Request, resp *wire.Response) {
	if h == nil || h.Membership == nil {
		resp.Status = wire.StatusErr
		resp.Value = []byte("no membership agent")
		return
	}
	held, err := h.Membership.Update(req.View)
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
func (s *Server) routed(m MembershipHandler, req *wire.Request, resp *wire.Response) bool {
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

// repairGet is the GET miss path with a read-repair hook installed: consult
// it, and install-and-serve whatever it recovers. Runs only on misses of
// repair-marked slots (the hook itself checks the mark), so the hit path
// stays allocation-free.
func (s *Server) repairGet(h *Hooks, req *wire.Request, resp *wire.Response) {
	v, ok := h.ReadRepair(req.Key)
	if !ok {
		resp.Status = wire.StatusNotFound
		return
	}
	// The decoded key aliases the connection's read buffer; clone before it
	// enters the cache. Only repaired misses pay.
	s.cache.Set(strings.Clone(req.Key), v)
	resp.Value = v
}
