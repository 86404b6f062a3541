package cluster

import (
	"fmt"
	"sync"

	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/stemcache"
)

// NodeConfig parameterizes one in-process cluster node: a
// stemcache.Cache[string, []byte] served by an internal/server.Server on a
// loopback (or configured) address. cmd/stemcluster uses this to run an
// N-node cluster in one process; tests use it for loopback clusters.
type NodeConfig struct {
	// Cache configures the node's cache. Give nodes distinct seeds (see
	// NodeSeed) so their probabilistic devices are independent.
	Cache stemcache.Config
	// Server configures the node's server; NodeID is overwritten with the
	// node's id.
	Server server.Config
	// Addr is the listen address. Default "127.0.0.1:0".
	Addr string
	// LRU, when true, builds the node's cache with STEM's spatial and
	// temporal mechanisms disabled (a plain sharded LRU) — the baseline
	// configuration for cluster A/B runs.
	LRU bool
}

// Node is one running cluster member. Construct with StartNode; stop with
// Close.
type Node struct {
	id    int
	cache *stemcache.Cache[string, []byte]
	srv   *server.Server

	// mu guards closed (rank 1: below Ring.mu, the innermost lock).
	mu     sync.Mutex
	closed bool
}

// NodeSeed derives node nodeID's cache seed from a cluster-wide seed, so an
// N-node cluster is reproducible from one number while its nodes' RNG
// streams stay independent.
func NodeSeed(clusterSeed uint64, nodeID int) uint64 {
	return sim.Mix64(clusterSeed + 0x9e3779b97f4a7c15*uint64(nodeID+1))
}

// StartNode builds node id's cache and serves it. On success the node is
// reachable at Addr() until Close.
func StartNode(id int, cfg NodeConfig) (*Node, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	cfg.Server.NodeID = id

	var cache *stemcache.Cache[string, []byte]
	var err error
	if cfg.LRU {
		cache, err = stemcache.NewShardedLRU[string, []byte](cfg.Cache)
	} else {
		cache, err = stemcache.New[string, []byte](cfg.Cache)
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: node %d cache: %w", id, err)
	}
	srv, err := server.New(cache, cfg.Server)
	if err != nil {
		cache.Close()
		return nil, fmt.Errorf("cluster: node %d server: %w", id, err)
	}
	if err := srv.Start(cfg.Addr); err != nil {
		cache.Close()
		return nil, fmt.Errorf("cluster: node %d listen: %w", id, err)
	}
	return &Node{id: id, cache: cache, srv: srv}, nil
}

// ID returns the node's cluster id.
func (n *Node) ID() int { return n.id }

// Addr returns the node's bound listen address.
func (n *Node) Addr() string { return n.srv.Addr() }

// Cache exposes the node's cache (tests assert on its stats directly).
func (n *Node) Cache() *stemcache.Cache[string, []byte] { return n.cache }

// Server exposes the node's server — the membership agent installs its
// hooks (replica fan-out, view pushes, read repair) through it.
func (n *Node) Server() *server.Server { return n.srv }

// Keys enumerates the node's resident keys — the membership manager's
// KeyLister for in-process clusters. See stemcache.AppendKeys for the consistency
// contract.
func (n *Node) Keys() []string { return n.cache.AppendKeys(nil) }

// Close stops the server (draining in-flight requests) and closes the
// cache. Idempotent.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()

	err := n.srv.Close()
	n.cache.Close()
	return err
}
