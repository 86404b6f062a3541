package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Config parameterizes a cluster Client.
type Config struct {
	// Addrs is a seed list: any of the cluster's members' "host:port"
	// addresses. Node i is Addrs[i] until the first MOVED or VIEW answer
	// brings the cluster's view, whose members and slot count replace them.
	Addrs []string
	// VNodes is the slots per node of the epoch-0 view the client starts
	// from (len(Addrs) × VNodes slots); a membership manager bootstraps
	// the cluster's view from its client's. Default 16.
	VNodes int
	// Seed salts the key→slot hash (Ring.SlotOf). Every client and node of
	// one cluster must share it.
	Seed uint64
	// Client is the per-node connection template; Addr is overwritten per
	// node.
	Client client.Config
	// Metrics, when non-nil, receives view and routing gauges under
	// "cluster.*".
	Metrics *obs.Registry
}

// maxMoved bounds the MOVED answers one operation follows: a view reaches
// every node in one push, so one that keeps being moved hashes keys with
// a seed the nodes do not share, and fails rather than spin.
const maxMoved = 8

// Client routes cache operations across a cluster by its own view: single
// operations go to the key's owner, MGET/MSET batches are split per owner,
// sent concurrently, and merged back into request order. It starts from the
// epoch-0 view of its seed addresses and adopts every newer view a node
// answers it with (MOVED and VIEW answers), rebuilding its node table from
// the view's members: in-process and external clients take this one path.
//
// Batch failures are partial by design: the answered positions are returned
// (found=false / stored nothing for the failed ones) together with a
// *client.PartialError naming the failed nodes. A cluster cache treats a
// dead node as a miss, not as a reason to fail the whole batch.
//
// Writes go to the owner alone, because only the owner fans a write out to
// the slot's replicas. When the owner fails transiently, a write waits for
// a view that names another owner (a failover), fetching the view from the
// other members at client.Backoff, doubling, on the node client's Clock for
// at most its OpTimeout; then the owner's error surfaces. A Get that fails
// transiently on the owner fetches the view the same way and retries the
// slot's replicas it names.
//
// Safe for concurrent use.
type Client struct {
	ring *Ring
	view atomic.Pointer[wire.View]
	// nodes is the node table, indexed by node id: node n is the held
	// view's member n, and past the view's members come the nodes AddNode
	// dialed before any view names them. An immutable snapshot, rebuilt
	// (under mu) before the view it serves is published; it never shrinks,
	// so an id from any earlier view still indexes it.
	nodes atomic.Pointer[[]*client.Client]

	// mu serializes the writers of nodes, view, dialed, gauged and closed.
	mu     sync.Mutex
	closed bool
	// dialed is every node client built, one per address. Only Close
	// closes them: an operation may still hold one the table dropped.
	dialed []*client.Client
	gauged int // node ids with a cluster.node<n>.slots gauge

	tpl client.Config
	// clk and wait pace and bound a write's wait for failover (the node
	// clients' Clock and OpTimeout).
	clk  clock.Clock
	wait time.Duration
	reg  *obs.Registry
	ops  *obs.Counter
}

// NewClient builds a routing client from the seed list cfg.Addrs. No
// connection is dialed until first use (client.New's contract).
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
	cl := &Client{ring: ring, tpl: cfg.Client, reg: cfg.Metrics}
	cl.nodes.Store(&[]*client.Client{})
	cl.view.Store(ring.InitialView(cfg.Addrs))
	if reg := cfg.Metrics; reg != nil {
		cl.ops = reg.Counter("cluster.client_ops")
		reg.GaugeFunc("cluster.view_epoch", func() float64 { return float64(cl.view.Load().Epoch) })
	}
	if err := cl.placeLocked(0, cfg.Addrs); err != nil { // not yet shared: no lock needed
		return nil, err
	}
	tpl := cl.NodeClient(0).Config()
	cl.clk, cl.wait = tpl.Clock, tpl.OpTimeout
	return cl, nil
}

// AddNode appends a node at addr to the table and returns its id. The
// membership manager dials a joining node this way before any view names
// it.
func (c *Client) AddNode(addr string) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, client.ErrClosed
	}
	n := len(*c.nodes.Load())
	return n, c.placeLocked(n, []string{addr})
}

// placeLocked makes node first+i the node client for addrs[i] and
// publishes the table with an owned-slot gauge for each id new in it. A
// node client built for an address before is reused, and ids the table
// held past addrs keep their node. Caller holds c.mu.
func (c *Client) placeLocked(first int, addrs []string) error {
	old := *c.nodes.Load()
	nodes := make([]*client.Client, max(first+len(addrs), len(old)))
	copy(nodes, old)
	for i, addr := range addrs {
		j := slices.IndexFunc(c.dialed, func(cl *client.Client) bool { return cl.Config().Addr == addr })
		if j < 0 {
			nc := c.tpl
			nc.Addr = addr
			cl, err := client.New(nc)
			if err != nil {
				return fmt.Errorf("cluster: node %d: %w", first+i, err)
			}
			j, c.dialed = len(c.dialed), append(c.dialed, cl)
		}
		nodes[first+i] = c.dialed[j]
	}
	c.nodes.Store(&nodes)
	for ; c.reg != nil && c.gauged < len(nodes); c.gauged++ {
		n := c.gauged
		c.reg.GaugeFunc(fmt.Sprintf("cluster.node%d.slots", n), func() float64 {
			return float64(len(slices.DeleteFunc(c.view.Load().Owners(), func(o int) bool { return o != n })))
		})
	}
	return nil
}

// adopt makes v the held view when it is newer than the held one, after
// placing its members so that node n is member n, and reports whether it
// did. The decoder has checked v's shape.
func (c *Client) adopt(v wire.View) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || v.Epoch <= c.view.Load().Epoch {
		return false, nil
	}
	addrs := make([]string, len(v.Members))
	for n, m := range v.Members {
		addrs[n] = m.Addr
	}
	if err := c.placeLocked(0, addrs); err != nil {
		return false, err
	}
	held := v // only an adopted view escapes: a stale one allocates nothing
	c.view.Store(&held)
	return true, nil
}

// PushView sends v to node's membership agent and adopts the view the node
// answers with: the membership manager's pushes keep its own client current
// this way, and a push at epoch 0 fetches the node's view.
func (c *Client) PushView(node int, v wire.View) error {
	held, err := c.NodeClient(node).View(v)
	if err != nil {
		return err
	}
	_, err = c.adopt(held)
	return err
}

// refresh fetches the view from the first serving member other than skip
// that answers one, and adopts it.
func (c *Client) refresh(skip int) {
	v := c.view.Load()
	for n := range v.Members {
		if n != skip && v.Alive(n) && c.PushView(n, wire.View{}) == nil {
			return
		}
	}
}

// Ring exposes the client's key→slot hash.
func (c *Client) Ring() *Ring { return c.ring }

// View returns the held view. It is shared: the caller must not change it.
func (c *Client) View() *wire.View { return c.view.Load() }

// NodeClient returns node n's pooled connection, for callers that address
// nodes directly, bypassing the view: slot copies, the membership
// manager's view pushes and heartbeats.
func (c *Client) NodeClient(n int) *client.Client { return (*c.nodes.Load())[n] }

// Close releases the pooled connections of every node the client has
// named. The first error wins.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	dialed := c.dialed
	c.mu.Unlock()
	var first error
	for _, cl := range dialed {
		if err := cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// errMoved ends an operation that followed maxMoved MOVED answers.
var errMoved = fmt.Errorf("cluster: still moved after %d MOVED answers (does the client's seed match the cluster's?)", maxMoved)

// moved adopts the view a MOVED answer carries and reports whether the
// operation should route again: yes, after a backoff when the view is no
// newer (the push has not reached the node yet). Any other error is
// returned.
func (c *Client) moved(err error) (bool, error) {
	var me *client.MovedError
	if !errors.As(err, &me) {
		return false, err
	}
	newer, err := c.adopt(me.View)
	if !newer && err == nil {
		c.clk.Sleep(client.Backoff)
	}
	return err == nil, err
}

// slotOf returns key's slot in v.
func (c *Client) slotOf(v *wire.View, key string) int { return c.ring.SlotOf(key, len(v.Replicas)) }

// owner returns key's owner in the held view.
func (c *Client) owner(key string) int {
	v := c.view.Load()
	return v.Owner(c.slotOf(v, key))
}

// route runs op against key's owner in the held view, following MOVED
// answers. It returns the node the last attempt went to.
func (c *Client) route(key string, op func(cl *client.Client) error) (int, error) {
	for moved := 0; ; moved++ {
		owner := c.owner(key)
		if again, err := c.moved(op(c.NodeClient(owner))); !again {
			return owner, err
		}
		if moved == maxMoved {
			return owner, errMoved
		}
	}
}

// read runs a lookup against key's owner and, on a transient failure,
// fetches the view from another member and retries the slot's replicas it
// names, in placement order. When they all fail too, the combined failures
// surface as a *client.PartialError; any other error surfaces as itself.
func (c *Client) read(key string, op func(cl *client.Client) error) error {
	c.ops.Inc()
	owner, err := c.route(key, op)
	if !client.IsTransient(err) {
		return err
	}
	c.refresh(owner)
	errs := []client.NodeError{{Node: owner, Err: err}}
	v := c.view.Load()
	for _, n := range v.Replicas[c.slotOf(v, key)] {
		if n == owner {
			continue
		}
		rerr := op(c.NodeClient(n))
		if rerr == nil {
			return nil
		}
		errs = append(errs, client.NodeError{Node: n, Err: rerr})
	}
	if len(errs) == 1 {
		return err
	}
	return &client.PartialError{Errs: errs}
}

// write runs a store or delete against key's owner: the one path a write
// takes. A transient owner failure waits for a view naming another owner
// (see Client), then writes there.
func (c *Client) write(key string, op func(cl *client.Client) error) error {
	c.ops.Inc()
	var waited time.Duration
	delay := client.Backoff
	for {
		owner, err := c.route(key, op)
		if !client.IsTransient(err) {
			return err
		}
		for c.refresh(owner); c.owner(key) == owner; c.refresh(owner) {
			if waited >= c.wait {
				return err
			}
			d := min(delay, c.wait-waited)
			c.clk.Sleep(d)
			waited += d
			delay *= 2
		}
	}
}

// Get fetches key from its owning node, falling back to the slot's
// replicas when the owner is unreachable.
func (c *Client) Get(key string) (value []byte, found bool, err error) {
	err = c.read(key, func(cl *client.Client) error {
		var e error
		value, found, e = cl.Get(key)
		return e
	})
	if err != nil {
		return nil, false, err
	}
	return value, found, nil
}

// Set stores key on its owning node. An unreachable owner holds the write
// until failover names another owner, or fails it after OpTimeout.
func (c *Client) Set(key string, value []byte) error {
	return c.write(key, func(cl *client.Client) error {
		return cl.Set(key, value)
	})
}

// SetTTL stores key with an explicit TTL on its owning node (owner only,
// as Set).
func (c *Client) SetTTL(key string, value []byte, ttl time.Duration) error {
	return c.write(key, func(cl *client.Client) error {
		return cl.SetTTL(key, value, ttl)
	})
}

// Del removes key from its owning node (owner only, as Set).
func (c *Client) Del(key string) (found bool, err error) {
	err = c.write(key, func(cl *client.Client) error {
		var e error
		found, e = cl.Del(key)
		return e
	})
	if err != nil {
		return false, err
	}
	return found, nil
}

// fanOut splits a batch of n items per owning node — keyAt(i) is item i's
// key — and runs send once per involved node, concurrently, with the
// node's item indices in input order, following MOVED answers and
// failovers as route and read do. Per-node failures come back as a
// *client.PartialError, ordered by node id within each round.
func (c *Client) fanOut(n int, keyAt func(i int) string, send func(cl *client.Client, idx []int) error) error {
	pending := make([]int, n)
	for i := range pending {
		pending[i] = i
	}
	c.ops.Inc()
	var failed []client.NodeError
	for round := 0; len(pending) > 0; round++ {
		v := c.view.Load()
		groups := make([][]int, len(v.Members)) // node id → item indices
		for _, i := range pending {
			o := v.Owner(c.slotOf(v, keyAt(i)))
			groups[o] = append(groups[o], i)
		}
		errs := make([]error, len(groups))
		var wg sync.WaitGroup
		for node, idx := range groups {
			if len(idx) == 0 {
				continue
			}
			cl := c.NodeClient(node)
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[node] = send(cl, idx)
			}()
		}
		wg.Wait()
		// A group answered MOVED, or failed while a fetched view moved
		// past v, is split again by the held view.
		pending = pending[:0]
		for node, err := range errs {
			again, err := c.moved(err)
			if client.IsTransient(err) {
				c.refresh(node)
				again = c.view.Load().Epoch > v.Epoch
			}
			if again && round < maxMoved {
				pending = append(pending, groups[node]...)
			} else if err != nil || again {
				failed = append(failed, client.NodeError{Node: node, Err: cmp.Or(err, errMoved)})
			}
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

// Ping fetches the view (so a client seeded with one address learns every
// member), then checks liveness of every node the held view does not mark
// dead or left; the first failure wins.
func (c *Client) Ping() error {
	c.refresh(-1)
	_, err := c.eachMember(func(cl *client.Client) ([]byte, error) { return nil, cl.Ping() })
	return err
}

// StatsAll fetches every node's STATS document (raw JSON, see
// server.StatsSnapshot), indexed by node. A node the view marks dead or
// left has a nil entry.
func (c *Client) StatsAll() ([][]byte, error) {
	return c.eachMember((*client.Client).Stats)
}

// eachMember runs f on every node of the table the held view does not mark
// dead or left and returns its answers, indexed by node. A node whose f
// fails is skipped when a view fetched from the other members marks it so;
// otherwise its error is returned.
func (c *Client) eachMember(f func(cl *client.Client) ([]byte, error)) ([][]byte, error) {
	gone := func(n int) bool { v := c.view.Load(); return n < len(v.Members) && !v.Alive(n) }
	nodes := *c.nodes.Load()
	out := make([][]byte, len(nodes))
	for n, cl := range nodes {
		if gone(n) {
			continue
		}
		b, err := f(cl)
		if err != nil {
			if c.refresh(n); gone(n) {
				continue
			}
			return nil, fmt.Errorf("node %d: %w", n, err)
		}
		out[n] = b
	}
	return out, nil
}
