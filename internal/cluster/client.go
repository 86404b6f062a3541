package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Config parameterizes a cluster Client.
type Config struct {
	// Addrs are the nodes' "host:port" addresses; node i is Addrs[i]. The
	// order must agree across every client and the membership manager (it
	// defines node ids).
	Addrs []string
	// VNodes is the number of ring slots per node. More slots spread load
	// more evenly but make migrations finer-grained. Default 16.
	VNodes int
	// Seed places the ring's slot points and hashes keys onto it. Every
	// client of one cluster must share it.
	Seed uint64
	// Client is the per-node connection template; Addr is overwritten per
	// node. Its Namespace field scopes the whole cluster client to one
	// tenant namespace: keys route by the ring exactly as before (the
	// namespace does not shift ownership), and every node applies its own
	// tenant accounting and capacity arbitration to the requests it serves.
	// Its DemandEvery, when > 0, asks every DemandEvery-th request per node
	// to piggyback the node's demand snapshot on its response
	// (wire.FlagDemand), and the client caches each snapshot in place of
	// the template's OnDemand — the push-based demand dissemination the
	// membership manager's demand rounds and replica placement consume
	// (CachedDemand), with the heartbeat as the explicit pull.
	Client client.Config
	// Metrics, when non-nil, receives ring and routing gauges under
	// "cluster.*".
	Metrics *obs.Registry
}

// Client routes cache operations across a cluster through a consistent-hash
// Ring: single operations go to the key's owner, MGET/MSET batches are
// split per owner, sent concurrently, and merged back into request order.
// It also keeps the two signals demand rebalancing feeds on: per-slot
// operation counts (the load signal) and per-node in-flight gates (so a
// migration can drain a node before copying keys).
//
// Batch failure semantics are partial by design: when some nodes answer and
// others fail, the answered positions are returned (found=false / stored
// nothing for the failed ones) together with a *client.PartialError naming
// the failed nodes. A cluster cache treats a dead node as a miss, not as a
// reason to fail the whole batch.
//
// With a replica source installed (SetReplicaSource, fed by the membership
// manager), single-key operations that fail transiently on a slot's owner
// are retried against the slot's replicas before any error surfaces — the
// client-side half of failover.
//
// Safe for concurrent use. The node set can grow (AddNode, for scale-out).
type Client struct {
	ring *Ring

	// slotOps[s] counts operations routed to slot s since the last
	// TakeSlotLoads — a demand round's load signal. The slot set
	// is fixed, so this never grows.
	slotOps []atomic.Uint64
	// nodes is the node table, indexed by node id: an immutable snapshot
	// behind an atomic pointer, so every operation sees a consistent set
	// and AddNode never blocks the data path. The handles themselves are
	// shared across snapshots.
	nodes atomic.Pointer[[]*nodeHandle]
	// replicaSource, when set, maps a slot to its replica node ids (owner
	// first). Installed by the membership manager.
	replicaSource atomic.Pointer[func(slot int) []int]

	// mu serializes AddNode and Close (the writers of nodes and closed).
	mu     sync.Mutex
	closed bool

	tpl client.Config
	reg *obs.Registry
	ops *obs.Counter
}

// nodeHandle is everything the client keeps per node: the pooled
// connection, the drain gate, and the last demand snapshot its responses
// piggybacked.
type nodeHandle struct {
	cl     *client.Client
	gate   gate
	demand atomic.Pointer[wire.NodeDemand]
}

// gate is one node's in-flight accounting: an operation bumps started
// before the network call and done after it.
type gate struct {
	started atomic.Uint64
	done    atomic.Uint64
}

// NewClient builds a routing client over cfg.Addrs. No connection is
// dialed until first use (client.New's contract).
func NewClient(cfg Config) (*Client, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("cluster: no node addresses")
	}
	if cfg.VNodes <= 0 {
		cfg.VNodes = 16
	}
	ring, err := NewRing(len(cfg.Addrs), cfg.VNodes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	cl := &Client{
		ring:    ring,
		slotOps: make([]atomic.Uint64, ring.Slots()),
		tpl:     cfg.Client,
		reg:     cfg.Metrics,
	}
	nodes := make([]*nodeHandle, len(cfg.Addrs))
	for i, addr := range cfg.Addrs {
		if nodes[i], err = cl.newHandle(addr); err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
	}
	cl.nodes.Store(&nodes)
	if reg := cfg.Metrics; reg != nil {
		cl.ops = reg.Counter("cluster.client_ops")
		reg.GaugeFunc("cluster.ring_version", func() float64 { return float64(ring.Version()) })
		for n := range nodes {
			cl.registerNodeGauge(n)
		}
	}
	return cl, nil
}

// newHandle builds one node's handle: its connection config is the
// template with the node's address and, when the template samples demand,
// the OnDemand sink writing into the handle.
func (c *Client) newHandle(addr string) (*nodeHandle, error) {
	h := &nodeHandle{}
	nc := c.tpl
	nc.Addr = addr
	if nc.DemandEvery > 0 {
		nc.OnDemand = func(d wire.NodeDemand) { h.demand.Store(&d) }
	}
	var err error
	h.cl, err = client.New(nc)
	return h, err
}

// registerNodeGauge publishes node n's owned-slot count.
func (c *Client) registerNodeGauge(n int) {
	c.reg.GaugeFunc(fmt.Sprintf("cluster.node%d.slots", n), func() float64 {
		return float64(len(c.ring.OwnedSlots(n)))
	})
}

// AddNode appends a node to the table and the ring's node count
// (scale-out) and returns its id. The new node owns no slots until the
// membership manager moves some to it. Operations already in
// flight keep their pre-AddNode table; new operations see the grown one.
func (c *Client) AddNode(addr string) (int, error) {
	h, err := c.newHandle(addr)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		h.cl.Close()
		return 0, client.ErrClosed
	}
	old := *c.nodes.Load()
	grown := append(old[:len(old):len(old)], h)
	c.nodes.Store(&grown)
	// The ring grows after the table, and slots move to the newcomer only
	// after that: a node id a Lookup returns is always in every table
	// loaded afterwards. This method is the ring's only grower, so the
	// ring's id is the table index.
	id := c.ring.AddNode()
	if c.reg != nil {
		c.registerNodeGauge(id)
	}
	return id, nil
}

// SetReplicaSource installs (or with nil removes) the slot→replica mapping
// single-key operations retry through. The membership manager installs its
// ReplicasOf here.
func (c *Client) SetReplicaSource(src func(slot int) []int) {
	if src == nil {
		c.replicaSource.Store(nil)
		return
	}
	c.replicaSource.Store(&src)
}

// Ring exposes the client's ring (shared with the membership tier).
func (c *Client) Ring() *Ring { return c.ring }

// Template returns the per-node connection template the client was built
// with, so sibling tiers (the membership agents' peer connections) dial
// with the same timeouts and retry policy. Demand sampling stays with the
// routing client: the returned template's DemandEvery is 0.
func (c *Client) Template() client.Config {
	tpl := c.tpl
	tpl.DemandEvery = 0
	return tpl
}

// Nodes returns the node count.
func (c *Client) Nodes() int { return len(*c.nodes.Load()) }

// handle returns node n's entry in the current table.
func (c *Client) handle(n int) *nodeHandle { return (*c.nodes.Load())[n] }

// NodeClient returns node n's pooled connection, for callers that address
// nodes directly, bypassing the ring: slot migration, the membership
// manager's view pushes and demand pulls.
func (c *Client) NodeClient(n int) *client.Client { return c.handle(n).cl }

// Close releases every node's pooled connections. The first error wins.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	nodes := *c.nodes.Load()
	c.mu.Unlock()
	var first error
	for _, h := range nodes {
		if err := h.cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// run executes op against node n inside the node's drain gate.
func (c *Client) run(n int, op func(cl *client.Client) error) error {
	h := c.handle(n)
	h.gate.started.Add(1)
	defer h.gate.done.Add(1)
	return op(h.cl)
}

// replicasFor returns slot's replica nodes excluding owner, or nil when no
// replica source is installed.
func (c *Client) replicasFor(slot, owner int) []int {
	srcp := c.replicaSource.Load()
	if srcp == nil {
		return nil
	}
	var out []int
	for _, n := range (*srcp)(slot) {
		if n != owner && n >= 0 && n < c.Nodes() {
			out = append(out, n)
		}
	}
	return out
}

// single runs op against key's owner — charging the slot's load counter —
// and, on a transient failure, retries it against the slot's replicas in
// placement order. When the owner and every replica fail, the combined
// failures surface as a *client.PartialError; a non-transient owner error
// surfaces as itself.
func (c *Client) single(key string, op func(cl *client.Client) error) error {
	node, slot := c.ring.Lookup(key)
	c.slotOps[slot].Add(1)
	c.ops.Inc()
	err := c.run(node, op)
	if err == nil || !client.IsTransient(err) {
		return err
	}
	reps := c.replicasFor(slot, node)
	if len(reps) == 0 {
		return err
	}
	errs := []client.NodeError{{Node: node, Err: err}}
	for _, rn := range reps {
		rerr := c.run(rn, op)
		if rerr == nil {
			return nil
		}
		errs = append(errs, client.NodeError{Node: rn, Err: rerr})
	}
	return &client.PartialError{Errs: errs}
}

// Get fetches key from its owning node, falling back to the slot's
// replicas when the owner is unreachable.
func (c *Client) Get(key string) (value []byte, found bool, err error) {
	err = c.single(key, func(cl *client.Client) error {
		var e error
		value, found, e = cl.Get(key)
		return e
	})
	if err != nil {
		return nil, false, err
	}
	return value, found, nil
}

// Set stores key on its owning node, falling back to the slot's replicas
// when the owner is unreachable (the write stays inside the slot's replica
// group, so failover still finds it).
func (c *Client) Set(key string, value []byte) error {
	return c.single(key, func(cl *client.Client) error {
		return cl.Set(key, value)
	})
}

// SetTTL stores key with an explicit TTL on its owning node (replica
// fallback as Set).
func (c *Client) SetTTL(key string, value []byte, ttl time.Duration) error {
	return c.single(key, func(cl *client.Client) error {
		return cl.SetTTL(key, value, ttl)
	})
}

// Del removes key from its owning node (replica fallback as Set).
func (c *Client) Del(key string) (found bool, err error) {
	err = c.single(key, func(cl *client.Client) error {
		var e error
		found, e = cl.Del(key)
		return e
	})
	if err != nil {
		return false, err
	}
	return found, nil
}

// GetOrLoad reads key through its owning node's lease protocol
// (client.Client.GetOrLoad): consistent hashing sends every process asking
// for a key to the same node, so the node-local lease table deduplicates
// origin fetches across the whole fleet — one origin fetch per miss,
// cluster-wide. After a ring migration a key's old owner may hold a now
// unreachable lease; it simply times out (server LeaseWait) with no effect
// on the new owner. When the owner is unreachable the load runs through a
// replica instead — fetch deduplication degrades to per-replica, never
// breaks.
func (c *Client) GetOrLoad(ctx context.Context, key string, origin client.Origin) (value []byte, err error) {
	err = c.single(key, func(cl *client.Client) error {
		var e error
		value, e = cl.GetOrLoad(ctx, key, origin)
		return e
	})
	if err != nil {
		return nil, err
	}
	return value, nil
}

// fanOut splits a batch of n items per owning node — keyAt(i) is item i's
// key — and runs send once per involved node, concurrently, each inside its
// node's drain gate, with the node's item indices in input order. Per-node
// failures come back as a *client.PartialError ordered by node id; the
// other nodes' sends have still happened.
func (c *Client) fanOut(n int, keyAt func(i int) string, send func(cl *client.Client, idx []int) error) error {
	var groups [][]int // node id → item indices
	for i := 0; i < n; i++ {
		node, slot := c.ring.Lookup(keyAt(i))
		c.slotOps[slot].Add(1)
		if node >= len(groups) {
			groups = append(groups, make([][]int, node+1-len(groups))...)
		}
		groups[node] = append(groups[node], i)
	}
	c.ops.Inc()
	// Loaded after the lookups, so it covers every id they returned (see
	// AddNode).
	nodes := *c.nodes.Load()
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	for node, idx := range groups {
		if len(idx) == 0 {
			continue
		}
		h := nodes[node]
		h.gate.started.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer h.gate.done.Add(1)
			errs[node] = send(h.cl, idx)
		}()
	}
	wg.Wait()
	var failed []client.NodeError
	for node, err := range errs {
		if err != nil {
			failed = append(failed, client.NodeError{Node: node, Err: err})
		}
	}
	if failed != nil {
		return &client.PartialError{Errs: failed}
	}
	return nil
}

// MGet fetches keys across the cluster: the batch is split per owning
// node, fanned out concurrently, and merged back into key order — values
// and found are parallel to keys. Dead nodes' keys read as misses alongside
// a *client.PartialError; values/found are still valid for the rest.
func (c *Client) MGet(keys []string) (values [][]byte, found []bool, err error) {
	if len(keys) == 0 {
		return nil, nil, nil
	}
	values = make([][]byte, len(keys))
	found = make([]bool, len(keys))
	err = c.fanOut(len(keys), func(i int) string { return keys[i] }, func(cl *client.Client, idx []int) error {
		sub := make([]string, len(idx))
		for j, i := range idx {
			sub[j] = keys[i]
		}
		vs, fs, err := cl.MGet(sub)
		if err != nil {
			return err
		}
		for j, i := range idx {
			values[i], found[i] = vs[j], fs[j]
		}
		return nil
	})
	return values, found, err
}

// MSet stores pairs across the cluster (split per owner, like MGet). When
// some nodes fail, the stores on the others have still happened.
func (c *Client) MSet(pairs []wire.KV) error {
	if len(pairs) == 0 {
		return nil
	}
	return c.fanOut(len(pairs), func(i int) string { return pairs[i].Key }, func(cl *client.Client, idx []int) error {
		sub := make([]wire.KV, len(idx))
		for j, i := range idx {
			sub[j] = pairs[i]
		}
		return cl.MSet(sub)
	})
}

// Ping checks liveness of every node; the first failure wins.
func (c *Client) Ping() error {
	for n, h := range *c.nodes.Load() {
		if err := h.cl.Ping(); err != nil {
			return fmt.Errorf("node %d: %w", n, err)
		}
	}
	return nil
}

// CachedDemand returns node's last pushed demand snapshot (piggybacked on
// a response or brought back by Heartbeat), or ok=false when none has
// arrived yet.
func (c *Client) CachedDemand(node int) (wire.NodeDemand, bool) {
	d := c.handle(node).demand.Load()
	if d == nil {
		return wire.NodeDemand{}, false
	}
	return *d, true
}

// Heartbeat pings node and caches the demand snapshot the response carries
// — the membership detector's probe, doubling as the demand-gossip
// fallback for idle nodes that no request traffic reaches.
func (c *Client) Heartbeat(node int) (wire.NodeDemand, error) {
	h := c.handle(node)
	h.gate.started.Add(1)
	d, err := h.cl.Heartbeat()
	h.gate.done.Add(1)
	if err != nil {
		return wire.NodeDemand{}, err
	}
	h.demand.Store(&d)
	return d, nil
}

// StatsAll fetches every node's STATS document (raw JSON, see
// server.StatsSnapshot), indexed by node.
func (c *Client) StatsAll() ([][]byte, error) {
	nodes := *c.nodes.Load()
	out := make([][]byte, len(nodes))
	for n, h := range nodes {
		b, err := h.cl.Stats()
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", n, err)
		}
		out[n] = b
	}
	return out, nil
}

// TakeSlotLoads returns each slot's operation count since the previous
// call, resetting the counters — one rebalancing epoch's load signal.
func (c *Client) TakeSlotLoads() []uint64 {
	loads := make([]uint64, len(c.slotOps))
	for s := range c.slotOps {
		loads[s] = c.slotOps[s].Swap(0)
	}
	return loads
}

// DrainNode waits until every operation routed to node before the call has
// finished — the quiesce step before a migration copies a slot's keys.
// Operations started after the call are not waited for (the lost-write
// window is documented at Client.MoveSlot).
func (c *Client) DrainNode(node int) {
	g := &c.handle(node).gate
	target := g.started.Load()
	for g.done.Load() < target {
		time.Sleep(200 * time.Microsecond)
	}
}
