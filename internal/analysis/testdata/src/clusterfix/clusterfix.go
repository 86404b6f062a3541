// Package cluster is the lockorder-analyzer fixture for the cluster tier's
// hierarchy. Its rank directives mirror the real package's order: Ring.mu
// before Node.mu.
package cluster

import "sync"

// Ring mirrors the real ownership table: an RWMutex at the top of the
// hierarchy.
type Ring struct {
	mu    sync.RWMutex //lint:rank 0
	owner []int
}

// Node mirrors a node's lifecycle lock (the innermost rank).
type Node struct {
	mu     sync.Mutex //lint:rank 1
	closed bool
}

// Client mirrors the routing client, which holds both.
type Client struct {
	ring *Ring
	node *Node
}

// goodOrder acquires down the hierarchy — no findings.
func (c *Client) goodOrder() {
	c.ring.mu.Lock()
	c.node.mu.Lock()
	c.node.mu.Unlock()
	c.ring.mu.Unlock()
}

// goodHandoff releases the ring lock before taking a node's, like the real
// migration path — no findings.
func (c *Client) goodHandoff() {
	c.ring.mu.RLock()
	c.ring.mu.RUnlock()
	c.node.mu.Lock()
	c.node.mu.Unlock()
}

// badOrder flips ring ownership while holding a node's lifecycle lock.
func (c *Client) badOrder() {
	c.node.mu.Lock()
	c.ring.mu.Lock()
	c.ring.mu.Unlock()
	c.node.mu.Unlock()
}

// badReadOrder reads the ownership table inside a node's critical section:
// a read lock inverts the order just as a write lock does.
func (c *Client) badReadOrder() {
	c.node.mu.Lock()
	c.ring.mu.RLock()
	c.ring.mu.RUnlock()
	c.node.mu.Unlock()
}

// move is a leaf that takes Ring.mu, like the real Ring.Move.
func (r *Ring) move(slot, to int) {
	r.mu.Lock()
	r.owner[slot] = to
	r.mu.Unlock()
}

// close is a leaf that takes Node.mu, like the real Node.Close.
func (n *Node) close() {
	n.mu.Lock()
	n.closed = true
	n.mu.Unlock()
}

// badCallOrder calls into a ring acquisition while a node's lock is held.
func (c *Client) badCallOrder() {
	c.node.mu.Lock()
	defer c.node.mu.Unlock()
	c.ring.move(0, 1)
}

// reentrantThroughCall calls close while already holding that node's lock.
func (n *Node) reentrantThroughCall() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.close()
}

// closeAll holds the ring lock across per-node acquisitions — in-order
// and legal.
func (c *Client) closeAll(nodes []*Node) {
	c.ring.mu.RLock()
	for _, n := range nodes {
		n.close()
	}
	c.ring.mu.RUnlock()
}
