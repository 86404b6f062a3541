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
	"repro/internal/obs"
	"repro/internal/wire"
)

// Config parameterizes a cluster Client.
type Config struct {
	// Addrs are the nodes' "host:port" addresses when the cluster was
	// bootstrapped; node i is Addrs[i]. The ring has len(Addrs) × VNodes
	// slots, so every client lists the same nodes in the same order, and
	// nodes that joined later reach it in views.
	Addrs []string
	// VNodes is the number of ring slots per node. More slots spread load
	// more evenly but make migrations finer-grained. Default 16.
	VNodes int
	// Seed places the ring's slot points and hashes keys onto it. Every
	// client of one cluster must share it.
	Seed uint64
	// Client is the per-node connection template; Addr is overwritten per
	// node.
	Client client.Config
	// Metrics, when non-nil, receives view and routing gauges under
	// "cluster.*".
	Metrics *obs.Registry
}

// maxMoved bounds the MOVED answers one operation follows: a view reaches
// every node in one push, so one that keeps being moved routes by a ring
// the nodes do not share (another seed), and fails rather than spin.
const maxMoved = 8

// Client routes cache operations across a cluster by its own View: single
// operations go to the key's owner, MGET/MSET batches are split per owner,
// sent concurrently, and merged back into request order. It starts from the
// epoch-0 view of Addrs and adopts every newer view a node answers it with
// (MOVED and VIEW answers), dialing the members new in it: in-process and
// external clients take this one path.
//
// Batch failures are partial by design: the answered positions are returned
// (found=false / stored nothing for the failed ones) together with a
// *client.PartialError naming the failed nodes. A cluster cache treats a
// dead node as a miss, not as a reason to fail the whole batch.
//
// Writes go to the owner alone, because only the owner fans a write out to
// the slot's replicas. When the owner fails transiently, a write waits for
// a view that names another owner (a failover), fetching the view from the
// other members at the node client's Backoff, doubling, for at most its
// OpTimeout; then the owner's error surfaces. A Get that fails transiently
// on the owner fetches the view the same way and retries the slot's
// replicas it names.
//
// Safe for concurrent use.
type Client struct {
	ring *Ring
	view atomic.Pointer[View]
	// nodes is the node table, indexed by node id: an immutable snapshot,
	// grown (under mu) before any view naming a new id is published.
	nodes atomic.Pointer[[]*client.Client]

	// mu serializes the writers of nodes, view and closed.
	mu     sync.Mutex
	closed bool

	tpl client.Config
	// backoff and wait pace and bound a write's wait for failover (the node
	// client's Backoff and OpTimeout).
	backoff, wait time.Duration
	reg           *obs.Registry
	ops           *obs.Counter
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
	cl := &Client{ring: ring, tpl: cfg.Client, reg: cfg.Metrics}
	cl.nodes.Store(&[]*client.Client{})
	cl.view.Store(ring.InitialView(cfg.Addrs))
	if reg := cfg.Metrics; reg != nil {
		cl.ops = reg.Counter("cluster.client_ops")
		reg.GaugeFunc("cluster.view_epoch", func() float64 { return float64(cl.view.Load().Epoch) })
	}
	for _, addr := range cfg.Addrs {
		if _, err := cl.AddNode(addr); err != nil {
			return nil, err
		}
	}
	tpl := cl.NodeClient(0).Config()
	cl.backoff, cl.wait = tpl.Backoff, tpl.OpTimeout
	return cl, nil
}

// AddNode appends a node at addr to the table and returns its id. The
// membership manager dials a joining node this way before any view names
// it; adopt grows the table the same way for members a view brings.
func (c *Client) AddNode(addr string) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, client.ErrClosed
	}
	return c.addNodeLocked(addr)
}

// addNodeLocked appends node addr and publishes its owned-slot gauge.
// Caller holds c.mu.
func (c *Client) addNodeLocked(addr string) (int, error) {
	nc := c.tpl
	nc.Addr = addr
	cl, err := client.New(nc)
	if err != nil {
		return 0, err
	}
	old := *c.nodes.Load()
	grown := append(old[:len(old):len(old)], cl)
	c.nodes.Store(&grown)
	n := len(old)
	if c.reg != nil {
		c.reg.GaugeFunc(fmt.Sprintf("cluster.node%d.slots", n), func() float64 {
			return float64(len(slices.DeleteFunc(c.view.Load().Owners(), func(o int) bool { return o != n })))
		})
	}
	return n, nil
}

// adopt makes w the held view when it is newer than the held one, after
// dialing the members the node table lacks, and reports whether it did. A
// view that does not fit the ring is refused with an error.
func (c *Client) adopt(w wire.View) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || w.Epoch <= c.view.Load().Epoch {
		return false, nil
	}
	v, err := c.ring.ParseView(w)
	if err != nil {
		return false, err
	}
	for n := len(*c.nodes.Load()); n < len(v.Members); n++ {
		if _, err := c.addNodeLocked(v.Members[n].Addr); err != nil {
			return false, fmt.Errorf("cluster: member %d: %w", n, err)
		}
	}
	c.view.Store(v)
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

// Ring exposes the client's ring: the key→slot hash.
func (c *Client) Ring() *Ring { return c.ring }

// View returns the held view. It is shared: the caller must not change it.
func (c *Client) View() *View { return c.view.Load() }

// NodeClient returns node n's pooled connection, for callers that address
// nodes directly, bypassing the view: slot copies, the membership
// manager's view pushes and heartbeats.
func (c *Client) NodeClient(n int) *client.Client { return (*c.nodes.Load())[n] }

// Close releases every node's pooled connections. The first error wins.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	nodes := *c.nodes.Load()
	c.mu.Unlock()
	var first error
	for _, cl := range nodes {
		if err := cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// errMoved ends an operation that followed maxMoved MOVED answers.
var errMoved = fmt.Errorf("cluster: still moved after %d MOVED answers (do the ring seeds agree?)", maxMoved)

// moved adopts the view a MOVED answer carries and reports whether the
// operation should route again: yes, after a backoff when the view is no
// newer (the push has not reached the node yet). Any other error, or a
// view the ring refuses, is returned.
func (c *Client) moved(err error) (bool, error) {
	var me *client.MovedError
	if !errors.As(err, &me) {
		return false, err
	}
	newer, err := c.adopt(me.View)
	if !newer && err == nil {
		time.Sleep(c.backoff)
	}
	return err == nil, err
}

// route runs op against slot's owner in the held view, following MOVED
// answers. It returns the node the last attempt went to.
func (c *Client) route(slot int, op func(cl *client.Client) error) (int, error) {
	for moved := 0; ; moved++ {
		owner := c.view.Load().Owner(slot)
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
	slot := c.ring.SlotOfKey(key)
	c.ops.Inc()
	owner, err := c.route(slot, op)
	if !client.IsTransient(err) {
		return err
	}
	c.refresh(owner)
	errs := []client.NodeError{{Node: owner, Err: err}}
	for _, n := range c.view.Load().Replicas[slot] {
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
	slot := c.ring.SlotOfKey(key)
	c.ops.Inc()
	var waited time.Duration
	delay := c.backoff
	for {
		owner, err := c.route(slot, op)
		if !client.IsTransient(err) {
			return err
		}
		for c.refresh(owner); c.view.Load().Owner(slot) == owner; c.refresh(owner) {
			if waited >= c.wait {
				return err
			}
			d := min(delay, c.wait-waited)
			time.Sleep(d)
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
	slots := make([]int, n)
	pending := make([]int, n)
	for i := range slots {
		slots[i], pending[i] = c.ring.SlotOfKey(keyAt(i)), i
	}
	c.ops.Inc()
	var failed []client.NodeError
	for round := 0; len(pending) > 0; round++ {
		v := c.view.Load()
		groups := make([][]int, len(v.Members)) // node id → item indices
		for _, i := range pending {
			o := v.Owner(slots[i])
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

// Ping checks liveness of every node the held view does not mark dead or
// left; the first failure wins.
func (c *Client) Ping() error {
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
