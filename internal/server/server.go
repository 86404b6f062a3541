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
// The package has three lock classes, ranked Server.mu before conn.mu
// before Server.leaseMu (the stemlint lockorder analyzer enforces this):
// Server.mu guards the connection registry and lifecycle state, conn.mu a
// single connection's drain/close state, and leaseMu the read-through lease
// table (see handleLoad). None is ever held while calling into the cache,
// so the cache's internal shard.mu sits below all three.
//
// Read-through leases: OpLoad extends the cache's in-process singleflight
// across client processes. The first connection to miss a key is granted a
// lease (StatusLease + token) and fetches the origin; connections asking
// for the same key meanwhile block on the lease — bounded by LeaseWait, so
// a crashed leaseholder stalls followers for at most one wait before one of
// them takes over — and are answered from the cache once the leader fills.
// The fleet performs one origin fetch per miss instead of one per client.
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
	"repro/internal/tenant"
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
	// NodeID identifies this server within a cluster; it is echoed in
	// demand snapshots and the STATS document so a cluster client can tell
	// which node answered. 0 for a standalone server.
	NodeID int
	// LeaseWait bounds how long an OpLoad waits on another client's
	// outstanding fetch lease before breaking it and taking over. It is the
	// blast radius of a crashed leaseholder: followers stall at most this
	// long. Default 1s.
	LeaseWait time.Duration
	// SlowRequest, when positive, makes the server emit an EvSlowRequest
	// event to Events for every request whose server-side time (frame read
	// + decode + cache op) reaches the threshold. 0 disables.
	SlowRequest time.Duration
	// Events receives EvSlowRequest events (typically the same JSONL tracer
	// that records the cache's mechanism events, so slow requests land on
	// the same timeline as demand and migration). Ignored unless
	// SlowRequest is set.
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
	if c.LeaseWait <= 0 {
		c.LeaseWait = time.Second
	}
	return c
}

// Server serves one stemcache over TCP. Construct with New; start with
// Serve or Start; stop with Close.
type Server struct {
	cache *stemcache.Cache[string, []byte]
	cfg   Config
	// reg is the cache's tenant registry (nil on an untenanted cache),
	// cached so the per-request namespace resolution is one field read.
	reg *tenant.Registry

	// mu guards the fields below (conn registry + lifecycle). Rank: above
	// conn.mu, never held while calling into the cache.
	mu     sync.Mutex
	ln     net.Listener
	conns  map[*conn]struct{}
	closed bool

	wg  sync.WaitGroup // accept loop + connection handlers
	sem chan struct{}  // max-conns gate

	// hooks holds the cluster-integration points (replica fan-out,
	// membership pushes, read repair), installed by SetHooks after the
	// server starts — the membership agent needs the cluster's ring and
	// peer addresses, which exist only once every node is listening. One
	// atomic pointer keeps the set consistent per request.
	hooks atomic.Pointer[Hooks]

	// leaseMu guards leases — the per-key read-through fetch leases that
	// deduplicate origin fetches across client processes. Rank: below
	// Server.mu and conn.mu (handle runs with neither held); never held
	// while calling into the cache or blocking on a channel.
	leaseMu  sync.Mutex
	leases   map[string]*lease
	leaseSeq atomic.Uint64 // token source; 0 is reserved for "no lease"
	quit     chan struct{} // closed by Close; unblocks lease waiters

	// Served-traffic counters, the one tally of each event: connection
	// goroutines add, STATS and a metrics scrape load. No lock spans the
	// connections, hence atomics.
	accepted     atomic.Uint64
	requests     atomic.Uint64
	protoErrors  atomic.Uint64
	ioErrors     atomic.Uint64
	batchKeys    atomic.Uint64 // keys carried by MGET/MSET frames
	loadReqs     atomic.Uint64 // OpLoad lookups (fills excluded)
	loadDedups   atomic.Uint64 // OpLoad lookups that parked on another's lease
	staleServed  atomic.Uint64
	negativeHits atomic.Uint64
	leaseBreaks  atomic.Uint64

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
		cache:  cache,
		cfg:    cfg,
		reg:    cache.TenantRegistry(),
		conns:  map[*conn]struct{}{},
		sem:    make(chan struct{}, cfg.MaxConns),
		leases: map[string]*lease{},
		quit:   make(chan struct{}),
	}
	s.registerMetrics(cfg.Metrics)
	s.timed = cfg.Metrics != nil || (cfg.SlowRequest > 0 && cfg.Events != nil)
	return s, nil
}

// registerMetrics exports the server through reg: the traffic counters,
// loaded from the server's own atomics when the registry is read (the
// "server.loads"/"server.load_dedup" pair counts the lease protocol), the
// live-connection gauge, and the per-opcode stage histograms, which are real
// cells. A nil reg registers nothing and leaves the histograms no-op sinks.
func (s *Server) registerMetrics(reg *obs.Registry) {
	reg.CounterFuncs(func(emit func(name string, v uint64)) {
		emit("server.conns_accepted", s.accepted.Load())
		emit("server.requests", s.requests.Load())
		emit("server.proto_errors", s.protoErrors.Load())
		emit("server.io_errors", s.ioErrors.Load())
		emit("server.batch_keys", s.batchKeys.Load())
		emit("server.loads", s.loadReqs.Load())
		emit("server.load_dedup", s.loadDedups.Load())
		emit("server.stale_served", s.staleServed.Load())
		emit("server.negative_hits", s.negativeHits.Load())
		emit("server.lease_breaks", s.leaseBreaks.Load())
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
	// Wake every OpLoad blocked on a lease before draining: a waiter
	// parked in handleLoad holds its connection, and the drain below waits
	// for exactly those connections.
	close(s.quit)
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
	// Loads counts OpLoad lookups served (fill frames excluded); LoadDedup
	// counts the subset answered by parking on another client's fetch lease
	// instead of consulting the origin — the stampede-protection view.
	Loads     uint64 `json:"loads"`
	LoadDedup uint64 `json:"load_dedup"`
	// Tenants is the per-tenant accounting block (hit rates, residency,
	// capacity targets), present only on a cache configured with a tenant
	// registry.
	Tenants []stemcache.TenantStats `json:"tenants,omitempty"`
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
		Loads:         s.loadReqs.Load(),
		LoadDedup:     s.loadDedups.Load(),
		Tenants:       s.cache.TenantStats(),
	}
	return json.Marshal(snap)
}

// demand rolls the cache's per-set SCDM state up into the wire snapshot a
// FlagDemand response carries — what the cluster rebalancer classifies
// nodes by. Reading demand never sweeps or otherwise perturbs the cache
// (stemcache.Demand's contract), so a heartbeat every epoch observes, it
// does not steer.
func (s *Server) demand() *wire.NodeDemand {
	d := s.cache.Demand()
	return &wire.NodeDemand{
		NodeID:      uint32(s.cfg.NodeID),
		Sets:        uint32(d.Sets),
		TakerSets:   uint32(d.TakerSets),
		GiverSets:   uint32(d.GiverSets),
		CoupledSets: uint32(d.CoupledSets),
		ScSSum:      d.ScSSum,
		ScSMax:      d.ScSMax,
		Live:        uint64(d.Live),
		Capacity:    uint64(d.Capacity),
	}
}

// resolveTenant maps a request's namespace to a tenant-scoped cache view.
// The empty namespace is the default tenant; an unknown namespace
// auto-registers (registry policy); a namespace arriving at an untenanted
// server folds into the default namespace, mirroring the registry's own
// overflow behavior. The fast path — no namespace, or a registered one — is
// lock- and allocation-free, so namespaced GETs keep the hot path's zero
// allocation budget.
func (s *Server) resolveTenant(req *wire.Request) stemcache.TenantView[string, []byte] {
	if req.Namespace == "" || s.reg == nil {
		return s.cache.Tenant(tenant.DefaultID)
	}
	return s.cache.Tenant(s.reg.Resolve(req.Namespace))
}

// handle executes one decoded request against the cache and fills resp.
// It runs on the connection's goroutine; the cache does its own locking.
func (s *Server) handle(req *wire.Request, resp *wire.Response) {
	s.requests.Add(1)
	resp.Reset()
	resp.Op, resp.ID, resp.Status = req.Op, req.ID, wire.StatusOK
	cache := s.resolveTenant(req)
	h := s.hooks.Load() // nil on a standalone server

	switch req.Op {
	case wire.OpPing:
		// Status OK is the whole answer.
	case wire.OpGet:
		if v, ok := cache.Get(req.Key); ok {
			resp.Value = v
		} else if h != nil && h.ReadRepair != nil {
			s.repairGet(h, cache, req, resp)
		} else {
			resp.Status = wire.StatusNotFound
		}
	case wire.OpSet, wire.OpSetTTL:
		ttl := req.TTL // OpSet leaves it 0 → the cache's DefaultTTL path
		if req.Flags&wire.FlagNX != 0 {
			s.handleNX(h, cache, req, resp, ttl)
			break
		}
		if req.Op == wire.OpSetTTL {
			cache.SetWithTTL(req.Key, req.Value, ttl)
		} else {
			cache.Set(req.Key, req.Value)
		}
		if h != nil && h.Replicator != nil {
			h.Replicator.ReplicateSet(req.Namespace, req.Key, req.Value, ttl)
		}
	case wire.OpDel:
		if !cache.Delete(req.Key) {
			resp.Status = wire.StatusNotFound
		}
		// Propagate regardless of the local verdict: a replica may hold
		// what this owner never saw (a write during a migration window).
		if h != nil && h.Replicator != nil {
			h.Replicator.ReplicateDelete(req.Namespace, req.Key)
		}
	case wire.OpMGet:
		// Append into the reset Response's warm capacity (Reset keeps the
		// backing arrays) so a steady MGET load allocates nothing here.
		found, values := resp.Found, resp.Values
		for _, k := range req.Keys {
			v, ok := cache.Get(k)
			values = append(values, v)
			found = append(found, ok)
		}
		resp.Found, resp.Values = found, values
		s.batchKeys.Add(uint64(len(req.Keys)))
	case wire.OpMSet:
		for _, kv := range req.Pairs {
			cache.Set(kv.Key, kv.Value)
			if h != nil && h.Replicator != nil {
				h.Replicator.ReplicateSet(req.Namespace, kv.Key, kv.Value, 0)
			}
		}
		s.batchKeys.Add(uint64(len(req.Pairs)))
	case wire.OpReplicate:
		// Apply directly and never fan out again — replication cannot
		// cycle. The decoder copied the operands (retaining opcode), so
		// they are safe to hand to the cache.
		if req.Flags&wire.FlagNegative != 0 {
			cache.Delete(req.Key)
		} else if req.TTL > 0 {
			cache.SetWithTTL(req.Key, req.Value, req.TTL)
		} else {
			cache.Set(req.Key, req.Value)
		}
	case wire.OpView:
		s.handleMembership(h, req, resp)
	case wire.OpLoad:
		s.handleLoad(cache, req, resp)
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
	// A FlagDemand request gets the node's demand snapshot piggybacked on
	// whatever response the opcode produced — push-based dissemination.
	if req.Flags&wire.FlagDemand != 0 {
		resp.Piggyback = s.demand()
	}
}

// observeRequest folds one request's stage timings into the per-opcode
// histograms and emits EvSlowRequest when the server-side time (decode +
// handle, the part the server controls; write waits on the client) reaches
// the configured threshold. Runs on the connection goroutine after the
// response was written.
func (s *Server) observeRequest(op wire.Op, namespace string, decode, handle, write time.Duration, tr *wire.TraceExt) {
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
		Type: obs.EvSlowRequest,
		Tick: s.requests.Load(),
		Set:  -1,
		Op:   strings.ToLower(op.String()),
		// The decoded namespace aliases the connection's read buffer; clone
		// before it escapes into the event stream. Only slow requests pay.
		Tenant: strings.Clone(namespace),
		Micros: uint64(max((decode + handle).Microseconds(), 0)),
		Trace:  traceID,
	})
}

// handleNX is the set-if-absent path: stemcache.GetOrSet's loaded report
// maps exactly onto StatusNotStored-with-resident-value vs StatusOK.
func (s *Server) handleNX(h *Hooks, cache stemcache.TenantView[string, []byte], req *wire.Request, resp *wire.Response, ttl time.Duration) {
	var actual []byte
	var loaded bool
	if req.Op == wire.OpSetTTL {
		actual, loaded = cache.GetOrSetWithTTL(req.Key, req.Value, ttl)
	} else {
		actual, loaded = cache.GetOrSet(req.Key, req.Value)
	}
	if loaded {
		resp.Status = wire.StatusNotStored
		resp.Value = actual
		return
	}
	// Stored: the write was applied, so it fans out like any other.
	if h != nil && h.Replicator != nil {
		h.Replicator.ReplicateSet(req.Namespace, req.Key, req.Value, ttl)
	}
}
