// Package server exposes a stemcache over TCP, speaking the internal/wire
// protocol: the STEM paper's capacity manager (set-level SCDM dueling plus
// taker→giver spilling) becomes the eviction engine of a networked cache
// service.
//
// The design is one goroutine per connection over a shared
// stemcache.Cache[string, []byte] — the cache's lock striping does the
// cross-connection coordination, the server adds none of its own on the hot
// path. Each connection reads length-prefixed request frames through a
// buffered reader, executes them against the cache, and writes responses
// through a buffered writer that is flushed only when no further pipelined
// input is already buffered — so a client that streams N requests gets its
// N responses in large writes instead of N small ones.
//
// Capacity and lifecycle:
//
//   - A max-connections gate applies backpressure at accept time: when
//     MaxConns handlers are live the accept loop blocks (the listen backlog
//     queues or rejects newcomers) instead of accepting and degrading.
//   - Connection deadlines bound reads and writes; an idle connection
//     blocks in one read until its first byte, IdleTimeout or a drain, and
//     is closed at IdleTimeout. Once a frame's first byte arrived the rest
//     of it gets ReadTimeout, counted from the first wait inside the frame.
//     A deadline is armed only where a read reaches the socket (conn.Read):
//     frames served from the read buffer arm nothing and read no clock.
//   - Close drains gracefully: the listener closes, blocked reads are woken,
//     requests already received finish and their responses are flushed, and
//     only then do connections close. Close is idempotent and safe to call
//     concurrently with handlers.
//
// The package has two lock classes, ranked Server.mu before conn.mu (the
// stemlint lockorder analyzer enforces this): Server.mu guards the
// connection registry and lifecycle state, conn.mu a single connection's
// drain/close state. Neither is ever held while calling into the cache, so
// the cache's internal shard.mu sits below both. No request waits on
// another connection.
//
// In a cluster, a membership agent installs itself as the server's one
// hook (Membership, see SetMembership): it routes keyed requests by the
// node's view and fans applied writes out to the slot's replicas before
// the ack. A standalone server has none.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/stemcache"
	"repro/internal/wire"
)

// wallClock is the package's single wall-clock read, used for connection
// deadlines and idle accounting only — never for cache decisions.
var wallClock = time.Now //lint:allow(determinism) connection deadlines and idle timeouts are a serving boundary; cache eviction state never sees this clock

// aLongTimeAgo is a fixed past deadline: setting it on a connection wakes a
// blocked read immediately (the net/http shutdown idiom) without a clock
// read.
var aLongTimeAgo = time.Unix(1, 0)

// Config parameterizes a Server. The zero value is usable.
type Config struct {
	// MaxConns caps concurrently served connections; the accept loop blocks
	// at the cap (backpressure via the listen backlog). Default 1024.
	MaxConns int
	// ReadTimeout bounds reading the rest of a frame once its first byte
	// arrived: it runs from the first wait inside the frame and covers the
	// whole frame, not each read. Default 10s.
	ReadTimeout time.Duration
	// WriteTimeout bounds writing one flush of responses. Default 10s.
	WriteTimeout time.Duration
	// IdleTimeout closes a connection that has not started a frame for this
	// long. Default 5m; negative disables.
	IdleTimeout time.Duration
	// DrainTimeout bounds Close's wait for in-flight requests; connections
	// still alive afterwards are closed forcibly. Default 5s.
	DrainTimeout time.Duration
	// Metrics, when non-nil, exports the server's counters under "server.*"
	// — derived: read from the server's own atomics when the registry is
	// read — and receives per-opcode stage latency histograms under
	// "server.lat.<op>.*_us" (decode, handle, write — see conn.serve for the
	// stage boundaries).
	Metrics *obs.Registry
	// NodeID identifies this server within a cluster; it is echoed in the
	// STATS document so a cluster client can tell which node answered. 0
	// for a standalone server.
	NodeID int
	// SlowRequest, when positive, makes the server emit an EvSlowRequest
	// event to Events for every request whose server-side time (frame read
	// + decode + cache op) reaches the threshold. 0 disables.
	SlowRequest time.Duration
	// Events receives EvSlowRequest events (typically the same JSONL tracer
	// that records the cache's mechanism events, so both share one
	// timeline). Ignored unless SlowRequest is set.
	Events obs.Observer
}

func (c Config) withDefaults() Config {
	if c.MaxConns <= 0 {
		c.MaxConns = 1024
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 10 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	return c
}

// Server serves one stemcache over TCP. Construct with New; start with
// Serve or Start; stop with Close.
type Server struct {
	cache *stemcache.Cache[string, []byte]
	cfg   Config

	// mu guards the fields below (conn registry + lifecycle); never held
	// while calling into the cache.
	//lint:rank 0
	mu     sync.Mutex
	ln     net.Listener
	conns  map[*conn]struct{}
	closed bool

	wg  sync.WaitGroup // accept loop + connection handlers
	sem chan struct{}  // max-conns gate

	// membership is the node's membership agent (view routing, replica
	// fan-out), installed by SetMembership after the server starts — the
	// agent needs the cluster's ring and peer addresses, which exist only
	// once every node is listening. nil on a standalone server.
	membership atomic.Pointer[Membership]

	// Served-traffic counters, the one tally of each event: connection
	// goroutines add, STATS and a metrics scrape load. No lock spans the
	// connections, hence atomics.
	accepted    atomic.Uint64
	requests    atomic.Uint64
	protoErrors atomic.Uint64
	ioErrors    atomic.Uint64
	batchKeys   atomic.Uint64 // keys carried by MGET/MSET frames

	// lat holds the per-opcode stage histograms, indexed by raw opcode byte;
	// all-nil (no-op sinks) without a registry. Written once in New,
	// read-only afterwards.
	lat [256]stageLat
	// timed makes every request pay its stage clock reads (metrics or
	// slow-request tracing configured); untraced requests on an untimed
	// server read no clock at all.
	timed bool
}

// stageLat times one opcode's request stages: decode (frame read + parse),
// handle (cache op), write (response encode + buffered write + flush).
type stageLat struct {
	decode, handle, write *obs.LatencyHistogram
}

// New builds a server over cache. The cache must outlive the server; the
// server never closes it (several servers — say a STEM one and a baseline —
// may share a process, and cmd/stemd owns its cache's lifecycle).
func New(cache *stemcache.Cache[string, []byte], cfg Config) (*Server, error) {
	if cache == nil {
		return nil, errors.New("server: nil cache")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cache: cache,
		cfg:   cfg,
		conns: map[*conn]struct{}{},
		sem:   make(chan struct{}, cfg.MaxConns),
	}
	s.registerMetrics(cfg.Metrics)
	s.timed = cfg.Metrics != nil || (cfg.SlowRequest > 0 && cfg.Events != nil)
	return s, nil
}

// registerMetrics exports the server through reg: the traffic counters,
// loaded from the server's own atomics when the registry is read, the
// live-connection gauge, and the per-opcode stage histograms, which are real
// cells. A nil reg registers nothing and leaves the histograms no-op sinks.
func (s *Server) registerMetrics(reg *obs.Registry) {
	reg.CounterFuncs(func(emit func(name string, v uint64)) {
		emit("server.conns_accepted", s.accepted.Load())
		emit("server.requests", s.requests.Load())
		emit("server.proto_errors", s.protoErrors.Load())
		emit("server.io_errors", s.ioErrors.Load())
		emit("server.batch_keys", s.batchKeys.Load())
	})
	reg.GaugeFunc("server.conns_active", func() float64 { return float64(s.ConnCount()) })
	for op := wire.OpPing; op.Valid(); op++ {
		name := "server.lat." + strings.ToLower(op.String())
		s.lat[op] = stageLat{
			decode: reg.Latency(name + ".decode_us"),
			handle: reg.Latency(name + ".handle_us"),
			write:  reg.Latency(name + ".write_us"),
		}
	}
}

// Start listens on addr ("host:port"; ":0" picks a free port) and serves in
// the background. Use Addr to learn the bound address and Close to stop.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve adopts ln and accepts connections in the background until Close.
// The listener is closed by Close. Serving twice or after Close is an error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	switch {
	case s.closed:
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already closed")
	case s.ln != nil:
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already serving")
	}
	s.ln = ln
	s.mu.Unlock()

	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the bound listen address, or "" before Serve.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// ConnCount returns the number of live connections.
func (s *Server) ConnCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// acceptLoop admits connections through the max-conns gate.
func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		// Backpressure: block here while MaxConns handlers are live. The
		// token is released by the handler's exit (or below on failure).
		s.sem <- struct{}{}
		nc, err := ln.Accept()
		if err != nil {
			<-s.sem
			if s.isClosed() {
				return
			}
			// Transient accept failure (EMFILE and friends): back off
			// briefly rather than spinning.
			time.Sleep(5 * time.Millisecond)
			continue
		}
		c := newConn(s, nc)
		if !s.register(c) {
			// Lost the race with Close: refuse politely.
			nc.Close()
			<-s.sem
			return
		}
		s.accepted.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			c.serve()
			s.unregister(c)
			<-s.sem
		}()
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// register adds c to the registry; false when the server is closed.
func (s *Server) register(c *conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) unregister(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// Close drains the server: the listener stops accepting, every connection
// finishes the requests it has already read (flushing their responses), and
// connections still busy after DrainTimeout are closed forcibly. Close is
// idempotent; subsequent calls return nil immediately.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	drain := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		drain = append(drain, c)
	}
	s.mu.Unlock()

	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range drain {
		c.startDrain()
	}

	done := make(chan struct{})
	// The watcher exits once wg.Wait returns; both select arms below wait
	// for it on done.
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(s.cfg.DrainTimeout):
		// Grace expired: cut the stragglers and wait for their handlers.
		s.mu.Lock()
		for c := range s.conns {
			c.forceClose()
		}
		s.mu.Unlock()
		<-done
		if err == nil {
			err = errors.New("server: drain timeout exceeded; connections were closed forcibly")
		}
	}
	return err
}

// StatsSnapshot is the STATS frame's JSON document.
type StatsSnapshot struct {
	// NodeID is the server's cluster node id (0 standalone).
	NodeID int `json:"node_id"`
	// Cache is the stemcache counter block (hits, misses, spills, ...).
	Cache stemcache.Stats `json:"cache"`
	// HitRate is Cache.HitRate, precomputed for dashboards.
	HitRate float64 `json:"hit_rate"`
	// Len is the cache's current unexpired occupancy (expired entries are
	// swept by the snapshot, so this is truthful, not approximate).
	Len int `json:"len"`
	// Capacity is the cache's normalized entry capacity.
	Capacity int `json:"capacity"`
	// Conns is the number of live connections.
	Conns int `json:"conns"`
	// ConnsAccepted counts connections admitted since start.
	ConnsAccepted uint64 `json:"conns_accepted"`
	// Requests counts frames served since start.
	Requests uint64 `json:"requests"`
	// ProtoErrors counts malformed frames received.
	ProtoErrors uint64 `json:"proto_errors"`
}

// statsJSON renders the STATS payload.
func (s *Server) statsJSON() ([]byte, error) {
	st := s.cache.Stats()
	snap := StatsSnapshot{
		NodeID:        s.cfg.NodeID,
		Cache:         st,
		HitRate:       st.HitRate(),
		Len:           s.cache.Len(),
		Capacity:      s.cache.Capacity(),
		Conns:         s.ConnCount(),
		ConnsAccepted: s.accepted.Load(),
		Requests:      s.requests.Load(),
		ProtoErrors:   s.protoErrors.Load(),
	}
	return json.Marshal(snap)
}

// handle executes one decoded request against the cache and fills resp.
// It runs on the connection's goroutine; the cache does its own locking.
// The membership is loaded once: a request sees one agent, or none.
func (s *Server) handle(req *wire.Request, resp *wire.Response) {
	s.requests.Add(1)
	resp.Reset()
	resp.Op, resp.ID, resp.Status = req.Op, req.ID, wire.StatusOK
	m := Membership(standalone{})
	if p := s.membership.Load(); p != nil {
		m = *p
		if !s.routed(m, req, resp) {
			return
		}
	}

	switch req.Op {
	case wire.OpPing:
		// Status OK is the whole answer.
	case wire.OpGet:
		if v, ok := s.cache.Get(req.Key); ok {
			resp.Value = v
		} else {
			resp.Status = wire.StatusNotFound
		}
	case wire.OpSet:
		s.cache.Set(req.Key, req.Value)
		m.ReplicateSet(req.Key, req.Value, 0)
	case wire.OpSetTTL:
		s.cache.SetWithTTL(req.Key, req.Value, req.TTL)
		m.ReplicateSet(req.Key, req.Value, req.TTL)
	case wire.OpDel:
		if !s.cache.Delete(req.Key) {
			resp.Status = wire.StatusNotFound
		}
		// Propagate regardless of the local verdict: a follower may still
		// hold what the owner evicted.
		m.ReplicateDelete(req.Key)
	case wire.OpMGet:
		// Append into the reset Response's warm capacity (Reset keeps the
		// backing arrays) so a steady MGET load allocates nothing here.
		found, values := resp.Found, resp.Values
		for _, k := range req.Keys {
			v, ok := s.cache.Get(k)
			values = append(values, v)
			found = append(found, ok)
		}
		resp.Found, resp.Values = found, values
		s.batchKeys.Add(uint64(len(req.Keys)))
	case wire.OpMSet:
		for _, kv := range req.Pairs {
			s.cache.Set(kv.Key, kv.Value)
			m.ReplicateSet(kv.Key, kv.Value, 0)
		}
		s.batchKeys.Add(uint64(len(req.Pairs)))
	case wire.OpReplicate:
		// Apply directly and never fan out again — replication cannot
		// cycle. The decoder copied the operands (retaining opcode), so
		// they are safe to hand to the cache.
		if req.Flags&wire.FlagNegative != 0 {
			s.cache.Delete(req.Key)
		} else if req.Flags&wire.FlagNX != 0 && req.TTL > 0 {
			s.cache.GetOrSetWithTTL(req.Key, req.Value, req.TTL)
		} else if req.Flags&wire.FlagNX != 0 {
			s.cache.GetOrSet(req.Key, req.Value)
		} else if req.TTL > 0 {
			s.cache.SetWithTTL(req.Key, req.Value, req.TTL)
		} else {
			s.cache.Set(req.Key, req.Value)
		}
	case wire.OpView:
		s.handleView(m, req, resp)
	case wire.OpStats:
		b, err := s.statsJSON()
		if err != nil {
			resp.Status = wire.StatusErr
			resp.Value = []byte(fmt.Sprintf("stats: %v", err))
			break
		}
		resp.Value = b
	default:
		// Unreachable: the decoder rejects unknown opcodes. Answer rather
		// than crash if a new opcode outruns this switch.
		resp.Status = wire.StatusErr
		resp.Value = []byte(fmt.Sprintf("unhandled opcode %v", req.Op))
	}
}

// observeRequest folds one request's stage timings into the per-opcode
// histograms and emits EvSlowRequest when the server-side time (decode +
// handle, the part the server controls; write waits on the client) reaches
// the configured threshold. Runs on the connection goroutine after the
// response was written.
func (s *Server) observeRequest(op wire.Op, decode, handle, write time.Duration, tr *wire.TraceExt) {
	m := s.lat[op]
	m.decode.Observe(uint64(max(decode.Microseconds(), 0)))
	m.handle.Observe(uint64(max(handle.Microseconds(), 0)))
	m.write.Observe(uint64(max(write.Microseconds(), 0)))
	if s.cfg.SlowRequest <= 0 || s.cfg.Events == nil || decode+handle < s.cfg.SlowRequest {
		return
	}
	var traceID uint64
	if tr != nil {
		traceID = tr.ID
	}
	s.cfg.Events.Event(obs.Event{
		Type:   obs.EvSlowRequest,
		Tick:   s.requests.Load(),
		Set:    -1,
		Op:     strings.ToLower(op.String()),
		Micros: uint64(max((decode + handle).Microseconds(), 0)),
		Trace:  traceID,
	})
}
