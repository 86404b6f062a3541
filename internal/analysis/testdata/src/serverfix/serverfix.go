// Package server is the lockorder-analyzer fixture for the network server's
// hierarchy. Its rank directives mirror the real package's order: Server.mu
// before conn.mu.
package server

import "sync"

type conn struct {
	mu       sync.Mutex //lint:rank 1
	draining bool
}

// Server mirrors the real package's two lock classes.
type Server struct {
	mu    sync.Mutex //lint:rank 0
	conns map[*conn]struct{}
}

// goodOrder acquires down the hierarchy — no findings.
func (s *Server) goodOrder(c *conn) {
	s.mu.Lock()
	c.mu.Lock()
	c.mu.Unlock()
	s.mu.Unlock()
}

// goodHandoff releases the registry lock before touching the connection,
// like the real Close does — no findings.
func (s *Server) goodHandoff(c *conn) {
	s.mu.Lock()
	s.mu.Unlock()
	c.mu.Lock()
	c.mu.Unlock()
}

// badOrder takes the registry lock while holding a connection's lock.
func (s *Server) badOrder(c *conn) {
	c.mu.Lock()
	s.mu.Lock()
	s.mu.Unlock()
	c.mu.Unlock()
}

// startDrain is a leaf that takes conn.mu, like the real conn.startDrain.
func (c *conn) startDrain() {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
}

// register is a leaf that takes Server.mu.
func (s *Server) register(c *conn) {
	s.mu.Lock()
	s.conns[c] = struct{}{}
	s.mu.Unlock()
}

// badCallOrder calls into a registry acquisition while a connection's lock
// is held.
func (s *Server) badCallOrder(c *conn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s.register(c)
}

// reentrantThroughCall calls startDrain while already holding that conn's
// lock.
func (c *conn) reentrantThroughCall() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.startDrain()
}

// drainAll holds the registry lock across per-connection acquisitions —
// in-order and legal, like the real forced-close path.
func (s *Server) drainAll() {
	s.mu.Lock()
	for c := range s.conns {
		c.startDrain()
	}
	s.mu.Unlock()
}
