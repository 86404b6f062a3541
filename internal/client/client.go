// Package client is the Go client for stemd's wire protocol
// (internal/wire): a pooled, pipelining TCP client with per-operation
// deadlines and bounded retry.
//
// A Client owns a pool of lazily dialed connections. Single operations
// (Get, Set, Del, ...) borrow one connection, perform a write-read round
// trip under OpTimeout, and return it; the pool makes the client safe for
// concurrent use from many goroutines, up to PoolSize concurrent
// operations per address with no lock contention on the wire.
//
// Transient failures — dial errors, connection resets, timeouts — are
// retried on a fresh connection with exponential backoff, up to Retries
// times. Protocol-level failures (a malformed frame, a StatusErr response)
// are never retried: they indicate a bug or an incompatible peer, not a
// flaky network. Note the retry semantics are at-least-once: a store whose
// response was lost may be applied twice. For a cache every operation is
// idempotent in effect (SET twice = SET once), so this trades exactness
// for availability the way cache clients usually do.
//
// A Batch pipelines many operations into one write-flush-read cycle over a
// single pooled connection: requests are encoded back to back, flushed
// once, and the responses — which the server sends strictly in request
// order — are read back in sequence. On a loaded loopback this is the
// difference between one syscall pair per operation and one per batch.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// wallClock is the package's single wall-clock read, used only for I/O
// deadlines.
var wallClock = time.Now //lint:allow(determinism) client I/O deadlines are a tool boundary; nothing seed-deterministic reads this

// Config parameterizes a Client. Addr is required; everything else has a
// documented default.
type Config struct {
	// Addr is the server's "host:port".
	Addr string
	// PoolSize caps pooled idle connections (and hence fully parallel
	// single operations). Default 4.
	PoolSize int
	// DialTimeout bounds one connection attempt. Default 5s.
	DialTimeout time.Duration
	// OpTimeout bounds one operation attempt's write+read round trip
	// (per attempt, not across retries). Default 10s.
	OpTimeout time.Duration
	// Retries is how many times a transiently failed operation is retried
	// on a fresh connection (attempts = Retries + 1). Default 2.
	Retries int
	// Backoff is the first retry's delay; it doubles per retry. Default
	// 10ms.
	Backoff time.Duration
	// TraceEvery enables end-to-end tracing: every TraceEvery-th request
	// carries a wire trace extension, and the echoed server timings are
	// split into total / server / network latency per sample. 1 traces
	// every request; 0 (default) disables tracing.
	TraceEvery int
	// Metrics, when non-nil alongside TraceEvery, receives the per-sample
	// latency splits as "client.lat.total_us", "client.lat.server_us" and
	// "client.lat.net_us" histograms.
	Metrics *obs.Registry
	// OnTrace, when non-nil, receives every completed trace sample
	// synchronously on the operation's goroutine. Keep it cheap.
	OnTrace func(TraceSample)
	// Namespace scopes every operation to one tenant namespace on a
	// multi-tenant server: the name rides each request's wire tenant field,
	// and the server resolves it to a tenant id (auto-registering unknown
	// names under the server's default tenant policy). "" (default) is the
	// default namespace — frames carry no tenant field and behave exactly as
	// a pre-tenant client. At most wire.MaxNamespaceLen bytes.
	Namespace string
	// DemandEvery makes every DemandEvery-th request carry wire.FlagDemand,
	// asking the server to piggyback its NodeDemand snapshot on the
	// response — push-based demand dissemination riding existing traffic
	// instead of a polling loop. 0 (default) disables.
	DemandEvery int
	// OnDemand, when non-nil, receives every piggybacked demand snapshot
	// (from DemandEvery sampling or an explicit Heartbeat) synchronously on
	// the operation's goroutine. Keep it cheap.
	OnDemand func(wire.NodeDemand)
}

func (c Config) withDefaults() Config {
	if c.PoolSize <= 0 {
		c.PoolSize = 4
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.OpTimeout <= 0 {
		c.OpTimeout = 10 * time.Second
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.Backoff <= 0 {
		c.Backoff = 10 * time.Millisecond
	}
	if c.TraceEvery < 0 {
		c.TraceEvery = 0
	}
	if c.DemandEvery < 0 {
		c.DemandEvery = 0
	}
	return c
}

// ErrClosed is returned by operations on a closed Client.
var ErrClosed = errors.New("client: closed")

// ServerError is a StatusErr response surfaced as a Go error. It is not
// retried.
type ServerError struct {
	// Op is the operation that failed.
	Op wire.Op
	// Msg is the server's message.
	Msg string
}

// Error formats the failed op and the server's message.
func (e *ServerError) Error() string {
	return fmt.Sprintf("client: server error on %v: %s", e.Op, e.Msg)
}

// NodeError is one node's failure within an operation that spans several
// servers (the cluster tier's fanned-out batches and replica retries).
type NodeError struct {
	// Node is the failed node's cluster id.
	Node int
	// Err is the underlying client error.
	Err error
}

// Error formats the node id and the underlying error.
func (e NodeError) Error() string {
	return fmt.Sprintf("node %d: %v", e.Node, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e NodeError) Unwrap() error { return e.Err }

// PartialError reports that an operation spanning several nodes succeeded
// on some and failed on others. Results for the successful nodes are still
// returned alongside it. Errs is ordered by node id for a batch, by attempt
// (owner first) for a replica retry.
type PartialError struct {
	Errs []NodeError
}

// Error joins the per-node failures into one message.
func (e *PartialError) Error() string {
	parts := make([]string, len(e.Errs))
	for i, ne := range e.Errs {
		parts[i] = ne.Error()
	}
	return fmt.Sprintf("client: partial batch failure: %s", strings.Join(parts, "; "))
}

// Client is a pooled connection to one stemd server. Safe for concurrent
// use. Construct with New; release with Close.
type Client struct {
	cfg Config

	mu     sync.Mutex
	idle   []*cconn
	closed bool

	// Tracing state (see trace.go). epoch anchors the client's monotonic
	// microsecond clock; traceSeq picks every TraceEvery-th operation;
	// traceSalt makes trace ids unique across client instances. The
	// histogram cells are nil-safe no-op sinks without a registry.
	epoch     time.Time
	traceSalt uint64
	traceSeq  atomic.Uint64
	latTotal  *obs.LatencyHistogram
	latServer *obs.LatencyHistogram
	latNet    *obs.LatencyHistogram

	// demandSeq picks every DemandEvery-th request for a piggybacked
	// demand snapshot.
	demandSeq atomic.Uint64

	// refreshWG tracks background stale-refresh goroutines (load.go);
	// Close waits for them so a refresh never outlives its client.
	refreshWG sync.WaitGroup
}

// cconn is one pooled connection with its buffers.
type cconn struct {
	nc     net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	rbuf   []byte // frame read buffer, reused
	wbuf   []byte // frame write buffer, reused
	nextID uint32
}

// New builds a client for cfg.Addr. No connection is made until the first
// operation, so New cannot fail on an unreachable server — the first
// operation will.
func New(cfg Config) (*Client, error) {
	if cfg.Addr == "" {
		return nil, errors.New("client: empty Addr")
	}
	if len(cfg.Namespace) > wire.MaxNamespaceLen {
		return nil, fmt.Errorf("client: namespace %q exceeds %d bytes", cfg.Namespace, wire.MaxNamespaceLen)
	}
	c := &Client{cfg: cfg.withDefaults()}
	if c.cfg.TraceEvery > 0 {
		c.epoch = wallClock()
		c.traceSalt = mix64(uint64(c.epoch.UnixNano()))
		c.latTotal = c.cfg.Metrics.Latency("client.lat.total_us")
		c.latServer = c.cfg.Metrics.Latency("client.lat.server_us")
		c.latNet = c.cfg.Metrics.Latency("client.lat.net_us")
	}
	return c, nil
}

// Close releases pooled connections. In-flight operations finish their
// current attempt; subsequent operations fail with ErrClosed. Close also
// waits for background stale-refresh goroutines (GetOrLoad), so it blocks
// while an Origin call of one is still running. Idempotent.
func (c *Client) Close() error {
	c.mu.Lock()
	idle := c.idle
	c.idle, c.closed = nil, true
	c.mu.Unlock()
	for _, cc := range idle {
		cc.nc.Close()
	}
	c.refreshWG.Wait()
	return nil
}

// get borrows a pooled connection or dials a fresh one.
func (c *Client) get() (*cconn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if n := len(c.idle); n > 0 {
		cc := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return cc, nil
	}
	c.mu.Unlock()

	nc, err := net.DialTimeout("tcp", c.cfg.Addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	// One cconn per dial, amortized over its pooled lifetime.
	return &cconn{
		nc: nc,
		br: bufio.NewReaderSize(nc, 32<<10),
		bw: bufio.NewWriterSize(nc, 32<<10),
	}, nil
}

// put returns a healthy connection to the pool (or closes it at capacity).
func (c *Client) put(cc *cconn) {
	c.mu.Lock()
	if !c.closed && len(c.idle) < c.cfg.PoolSize {
		c.idle = append(c.idle, cc)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	cc.nc.Close()
}

// IsTransient reports whether err is a connection-level failure that might
// heal elsewhere — a dial or I/O error, as opposed to a protocol or server
// error. The cluster routing client uses it to decide whether a failed
// single-key operation is worth retrying against the slot's replica.
func IsTransient(err error) bool { return transient(err) }

// transient reports whether err may heal on a fresh connection: dial and
// I/O errors yes, protocol and server errors no.
func transient(err error) bool {
	if err == nil || errors.Is(err, wire.ErrFrame) || errors.Is(err, ErrClosed) {
		return false
	}
	var se *ServerError
	if errors.As(err, &se) {
		return false
	}
	var ne net.Error
	return errors.As(err, &ne) || errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed)
}

// roundTrip performs one attempt: encode reqs, flush, read len(reqs)
// responses in order. The connection is healthy on nil error.
func (c *Client) roundTrip(cc *cconn, reqs []*wire.Request) ([]*wire.Response, error) {
	cc.wbuf = cc.wbuf[:0]
	for _, req := range reqs {
		cc.nextID++
		req.ID = cc.nextID
		// Stamp the client's namespace on outgoing requests that carry none
		// (idempotent across retry attempts, which reuse the request
		// structs). A caller-set namespace — a replication fan-out
		// preserving the originating tenant — wins over the config.
		if req.Namespace == "" {
			req.Namespace = c.cfg.Namespace
		}
		// Every DemandEvery-th request asks for a piggybacked demand
		// snapshot (sticky across retries, like the namespace).
		if c.cfg.DemandEvery > 0 && c.demandSeq.Add(1)%uint64(c.cfg.DemandEvery) == 0 {
			req.Flags |= wire.FlagDemand
		}
		c.attachTrace(req)
		var err error
		if cc.wbuf, err = wire.AppendRequest(cc.wbuf, req, wire.Limits{}); err != nil {
			// Encoding failures are caller bugs (oversized operands), not
			// connection state: fail without poisoning the connection.
			return nil, err
		}
	}
	// One arm bounds the whole round trip, the flush and every response read.
	cc.nc.SetDeadline(wallClock().Add(c.cfg.OpTimeout))
	if _, err := cc.bw.Write(cc.wbuf); err != nil {
		return nil, err
	}
	if err := cc.bw.Flush(); err != nil {
		return nil, err
	}
	// The response slice escapes to the caller; the copying decode is the
	// client's API contract.
	resps := make([]*wire.Response, len(reqs))
	for i, req := range reqs {
		resp, rbuf, err := wire.ReadResponse(cc.br, cc.rbuf, wire.Limits{})
		cc.rbuf = rbuf
		if err != nil {
			return nil, err
		}
		if resp.ID != req.ID || resp.Op != req.Op {
			if resp.Status == wire.StatusErr {
				// The server refused a frame of ours: it answers out of turn
				// with its decoder's error, then closes the connection.
				msg := strings.TrimPrefix(string(resp.Value), wire.ErrFrame.Error()+": ")
				return nil, fmt.Errorf("server rejected %v id %d: %w: %s", req.Op, req.ID, wire.ErrFrame, msg)
			}
			return nil, fmt.Errorf("%w: response (%v, id %d) does not match request (%v, id %d)",
				wire.ErrFrame, resp.Op, resp.ID, req.Op, req.ID)
		}
		if err := c.finishTrace(req, resp); err != nil {
			return nil, err
		}
		if resp.Piggyback != nil && c.cfg.OnDemand != nil {
			c.cfg.OnDemand(*resp.Piggyback)
		}
		resps[i] = resp
	}
	return resps, nil
}

// do runs reqs as one pipelined round trip with retry-with-backoff on
// transient errors. Each attempt uses a different connection; failed
// connections are closed, never pooled.
func (c *Client) do(reqs []*wire.Request) ([]*wire.Response, error) {
	var lastErr error
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			time.Sleep(c.cfg.Backoff << (attempt - 1))
		}
		cc, err := c.get()
		if err != nil {
			lastErr = err
			if transient(err) {
				continue
			}
			return nil, err
		}
		resps, err := c.roundTrip(cc, reqs)
		if err == nil {
			c.put(cc)
			return resps, nil
		}
		cc.nc.Close()
		lastErr = err
		if !transient(err) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("client: %d attempts failed, last: %w", c.cfg.Retries+1, lastErr)
}

// one runs a single request and unwraps StatusErr into a ServerError.
func (c *Client) one(req *wire.Request) (*wire.Response, error) {
	resps, err := c.do([]*wire.Request{req})
	if err != nil {
		return nil, err
	}
	resp := resps[0]
	if resp.Status == wire.StatusErr {
		return nil, &ServerError{Op: resp.Op, Msg: string(resp.Value)}
	}
	return resp, nil
}

// Ping checks liveness.
func (c *Client) Ping() error {
	_, err := c.one(&wire.Request{Op: wire.OpPing})
	return err
}

// Get fetches key; found reports residency.
func (c *Client) Get(key string) (value []byte, found bool, err error) {
	resp, err := c.one(&wire.Request{Op: wire.OpGet, Key: key})
	if err != nil {
		return nil, false, err
	}
	return resp.Value, resp.Status == wire.StatusOK, nil
}

// Set stores value under key with the server's default TTL.
func (c *Client) Set(key string, value []byte) error {
	_, err := c.one(&wire.Request{Op: wire.OpSet, Key: key, Value: value})
	return err
}

// SetTTL stores value under key with an explicit TTL; ttl <= 0 never
// expires.
func (c *Client) SetTTL(key string, value []byte, ttl time.Duration) error {
	_, err := c.one(&wire.Request{Op: wire.OpSetTTL, Key: key, Value: value, TTL: ttl})
	return err
}

// SetNX stores value only when key is absent. stored reports whether the
// store happened; when false, actual is the resident value that won.
func (c *Client) SetNX(key string, value []byte) (actual []byte, stored bool, err error) {
	resp, err := c.one(&wire.Request{Op: wire.OpSet, Flags: wire.FlagNX, Key: key, Value: value})
	if err != nil {
		return nil, false, err
	}
	if resp.Status == wire.StatusNotStored {
		return resp.Value, false, nil
	}
	return nil, true, nil
}

// Del removes key; found reports whether it was resident.
func (c *Client) Del(key string) (found bool, err error) {
	resp, err := c.one(&wire.Request{Op: wire.OpDel, Key: key})
	if err != nil {
		return false, err
	}
	return resp.Status == wire.StatusOK, nil
}

// MGet fetches keys in one frame. values and found are parallel to keys;
// values[i] is nil where found[i] is false.
func (c *Client) MGet(keys []string) (values [][]byte, found []bool, err error) {
	resp, err := c.one(&wire.Request{Op: wire.OpMGet, Keys: keys})
	if err != nil {
		return nil, nil, err
	}
	if len(resp.Values) != len(keys) {
		return nil, nil, fmt.Errorf("%w: MGET answered %d of %d keys", wire.ErrFrame, len(resp.Values), len(keys))
	}
	return resp.Values, resp.Found, nil
}

// MSet stores pairs in one frame.
func (c *Client) MSet(pairs []wire.KV) error {
	_, err := c.one(&wire.Request{Op: wire.OpMSet, Pairs: pairs})
	return err
}

// Stats fetches the server's statistics snapshot as raw JSON (the document
// is described by server.StatsSnapshot).
func (c *Client) Stats() ([]byte, error) {
	resp, err := c.one(&wire.Request{Op: wire.OpStats})
	if err != nil {
		return nil, err
	}
	return resp.Value, nil
}

// GetNS fetches key scoped to an explicit tenant namespace, overriding the
// client's configured Namespace ("" falls back to it). The membership
// agent's read repair uses this to query a slot's replicas in the
// originating tenant's scope.
func (c *Client) GetNS(namespace, key string) (value []byte, found bool, err error) {
	resp, err := c.one(&wire.Request{Op: wire.OpGet, Key: key, Namespace: namespace})
	if err != nil {
		return nil, false, err
	}
	return resp.Value, resp.Status == wire.StatusOK, nil
}

// Replicate applies one replicated store on the server without triggering
// its replica fan-out (OpReplicate is terminal — replication cannot cycle).
// ttl <= 0 uses the server's default TTL; namespace "" is the default
// tenant (the client's configured Namespace applies if set).
func (c *Client) Replicate(namespace, key string, value []byte, ttl time.Duration) error {
	_, err := c.one(&wire.Request{Op: wire.OpReplicate, Key: key, Value: value, TTL: ttl, Namespace: namespace})
	return err
}

// ReplicateDelete applies one replicated delete on the server (OpReplicate
// with wire.FlagNegative; see Replicate).
func (c *Client) ReplicateDelete(namespace, key string) error {
	_, err := c.one(&wire.Request{Op: wire.OpReplicate, Flags: wire.FlagNegative, Key: key, Namespace: namespace})
	return err
}

// PushMembership pushes a membership view to the server's agent (OpView).
func (c *Client) PushMembership(epoch uint64, members []wire.Member, replicas []wire.ReplicaSet) error {
	_, err := c.one(&wire.Request{Op: wire.OpView, Epoch: epoch, Members: members, Replicas: replicas})
	return err
}

// Heartbeat pings the server with wire.FlagDemand set, returning the
// piggybacked demand snapshot — one frame for liveness and demand gossip
// both, which is how the failure detector keeps the demand cache warm on
// otherwise idle nodes, and the only explicit pull of a node's demand. The
// OnDemand callback (if any) also fires.
func (c *Client) Heartbeat() (wire.NodeDemand, error) {
	resp, err := c.one(&wire.Request{Op: wire.OpPing, Flags: wire.FlagDemand})
	if err != nil {
		return wire.NodeDemand{}, err
	}
	if resp.Piggyback == nil {
		return wire.NodeDemand{}, fmt.Errorf("%w: FlagDemand response without snapshot", wire.ErrFrame)
	}
	return *resp.Piggyback, nil
}
