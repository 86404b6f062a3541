package server

import (
	"strings"
	"time"

	"repro/internal/stemcache"
	"repro/internal/wire"
)

// Replicator receives every write the server applies, synchronously on the
// connection goroutine and before the response is written — so an
// acknowledged write has already been offered to the slot's replicas, which
// is what lets failover promote a replica without losing acked writes (one
// node failure with replication factor 2; RF-1 failures in general).
// Implementations must not call back into this server.
//
// The namespace argument may alias the connection's read buffer: use it
// during the call, clone it to retain it.
type Replicator interface {
	// ReplicateSet fans out one applied store. ttl <= 0 means the default
	// TTL. Best effort: a failed fan-out is counted by the implementation
	// and repaired by the membership manager's re-replication, not by
	// failing the client's write.
	ReplicateSet(namespace, key string, value []byte, ttl time.Duration)
	// ReplicateDelete fans out one applied delete — also for keys the
	// cache did not hold, since a replica may hold what the owner lost.
	ReplicateDelete(namespace, key string)
}

// MembershipHandler receives OpView pushes.
type MembershipHandler interface {
	// Update applies one pushed membership view. epoch orders views, and
	// an implementation must ignore epochs at or below the one it holds.
	// The slices are owned by the callee.
	Update(epoch uint64, members []wire.Member, replicas []wire.ReplicaSet) error
}

// Hooks are the cluster-integration points a membership agent installs on a
// running server. They are bundled in one struct behind one atomic pointer
// so the hot path pays a single load to see a consistent set.
type Hooks struct {
	// Replicator, when non-nil, receives applied writes for replica
	// fan-out.
	Replicator Replicator
	// Membership, when non-nil, handles OpView pushes; without it they
	// answer StatusErr.
	Membership MembershipHandler
	// ReadRepair, when non-nil, is consulted on a GET miss. If it returns
	// ok, the value is installed in the cache and served — the membership
	// agent uses this to pull entries a freshly promoted or migrated-to
	// owner may be missing from the slot's surviving replicas. Both string
	// arguments may alias the connection's read buffer: valid during the
	// call only.
	ReadRepair func(namespace, key string) ([]byte, bool)
}

// SetHooks installs (or, with nil, removes) the cluster hooks. Safe to call
// while the server is serving: requests in flight see the old set or the
// new set, never a mix.
func (s *Server) SetHooks(h *Hooks) {
	s.hooks.Store(h)
}

// handleMembership answers OpView by delegating the pushed view to
// the installed membership handler.
func (s *Server) handleMembership(h *Hooks, req *wire.Request, resp *wire.Response) {
	if h == nil || h.Membership == nil {
		resp.Status = wire.StatusErr
		resp.Value = []byte("no membership agent")
		return
	}
	if err := h.Membership.Update(req.Epoch, req.Members, req.Replicas); err != nil {
		resp.Status = wire.StatusErr
		resp.Value = []byte(err.Error())
	}
}

// repairGet is the GET miss path with a read-repair hook installed: consult
// it, and install-and-serve whatever it recovers. Runs only on misses of
// repair-marked slots (the hook itself checks the mark), so the hit path
// stays allocation-free.
func (s *Server) repairGet(h *Hooks, cache stemcache.TenantView[string, []byte], req *wire.Request, resp *wire.Response) {
	v, ok := h.ReadRepair(req.Namespace, req.Key)
	if !ok {
		resp.Status = wire.StatusNotFound
		return
	}
	// The decoded key aliases the connection's read buffer; clone before it
	// enters the cache. Only repaired misses pay.
	cache.Set(strings.Clone(req.Key), v)
	resp.Value = v
}
