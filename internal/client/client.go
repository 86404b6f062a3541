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
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
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
	// on a fresh connection (attempts = Retries + 1). Default 2; negative
	// means no retry.
	Retries int
	// Clock paces the retry backoff. Default clock.Real.
	Clock clock.Clock
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
	if c.Clock == nil {
		c.Clock = clock.Real
	}
	if c.TraceEvery < 0 {
		c.TraceEvery = 0
	}
	return c
}

// Backoff is the first retry's delay; it doubles per retry.
const Backoff = 10 * time.Millisecond

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

// MovedError is a StatusMoved answer surfaced as a Go error: the node does
// not serve the operation's key under its membership view, and View is
// that view. It is not retried; the cluster routing client adopts the view
// and routes again.
type MovedError struct {
	// Op is the refused operation.
	Op wire.Op
	// View is the answering node's view.
	View wire.View
}

// Error formats the refused op and the view's epoch.
func (e *MovedError) Error() string {
	return fmt.Sprintf("client: %v moved (node holds view %d)", e.Op, e.View.Epoch)
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
// current attempt; subsequent operations fail with ErrClosed. Idempotent.
func (c *Client) Close() error {
	c.mu.Lock()
	idle := c.idle
	c.idle, c.closed = nil, true
	c.mu.Unlock()
	for _, cc := range idle {
		cc.nc.Close()
	}
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

// IsTransient reports whether err is a connection-level failure that may
// heal on a fresh connection or elsewhere: dial and I/O errors yes,
// protocol (ErrFrame, a malformed view among them) and server errors no.
// The client retries what it reports; the cluster routing client uses it
// to decide whether a failed operation waits for failover or retries the
// slot's replicas.
func IsTransient(err error) bool {
	if err == nil || errors.Is(err, wire.ErrFrame) || errors.Is(err, ErrClosed) {
		return false
	}
	var se *ServerError
	var me *MovedError
	if errors.As(err, &se) || errors.As(err, &me) {
		return false
	}
	var ne net.Error
	return errors.As(err, &ne) || errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed)
}

// unsentError is a request roundTrip refused to encode: nothing reached the
// connection, so it is still healthy.
type unsentError struct{ error }

func (e unsentError) Unwrap() error { return e.error }

// roundTrip performs one attempt: encode reqs, flush, and read len(reqs)
// responses in order into resps, decoded in place. Every value is copied out
// of the connection's read buffer into arena (reused from its start) before
// the next frame overwrites it, and re-pointed into the returned arena once
// the last frame is read, so nothing in resps aliases the connection after
// it returns. The connection is healthy on nil error and on an unsentError.
func (c *Client) roundTrip(cc *cconn, reqs []wire.Request, resps []wire.Response, arena []byte) ([]byte, error) {
	cc.wbuf = cc.wbuf[:0]
	for i := range reqs {
		req := &reqs[i]
		cc.nextID++
		req.ID = cc.nextID
		c.attachTrace(req)
		var err error
		if cc.wbuf, err = wire.AppendRequest(cc.wbuf, req, wire.Limits{}); err != nil {
			// Encoding failures are caller bugs (oversized operands), not
			// connection state: fail without poisoning the connection.
			return nil, unsentError{err}
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
	arena = arena[:0]
	for i := range reqs {
		req, resp := &reqs[i], &resps[i]
		var err error
		if cc.rbuf, err = wire.ReadResponseInto(resp, cc.br, cc.rbuf, wire.Limits{}); err != nil {
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
		arena = appendValues(arena, resp)
	}
	// The arena may have moved as it grew; the stale slices still carry
	// each value's length and nil-ness, and the values sit in it in order.
	off := 0
	for i := range resps {
		resp := &resps[i]
		resp.Value, off = carve(arena, off, resp.Value)
		for j, v := range resp.Values {
			resp.Values[j], off = carve(arena, off, v)
		}
	}
	return arena, nil
}

// appendValues copies resp's values, which alias the read buffer, onto
// arena, growing it at most once per frame.
func appendValues(arena []byte, resp *wire.Response) []byte {
	n := len(resp.Value)
	for _, v := range resp.Values {
		n += len(v)
	}
	arena = append(slices.Grow(arena, n), resp.Value...)
	for _, v := range resp.Values {
		arena = append(arena, v...)
	}
	return arena
}

// carve returns the arena slice at off that stands for v, a value
// appendValues copied there, and the offset past it. A nil v (absent) stays
// nil and an empty one stays empty.
func carve(arena []byte, off int, v []byte) ([]byte, int) {
	switch {
	case v == nil:
		return nil, off
	case len(v) == 0:
		return []byte{}, off
	}
	end := off + len(v)
	return arena[off:end:end], end
}

// do runs reqs as one pipelined round trip with retry-with-backoff on
// transient errors, decoding into resps (one per request) and copying their
// values into arena, which it returns grown as needed (see roundTrip). Each
// attempt uses a different connection; a connection that failed after
// bytes reached it is closed, never pooled.
func (c *Client) do(reqs []wire.Request, resps []wire.Response, arena []byte) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			c.cfg.Clock.Sleep(Backoff << (attempt - 1))
		}
		cc, err := c.get()
		if err != nil {
			lastErr = err
			if IsTransient(err) {
				continue
			}
			return nil, err
		}
		out, err := c.roundTrip(cc, reqs, resps, arena)
		if _, unsent := err.(unsentError); err == nil || unsent {
			c.put(cc)
			return out, err
		}
		cc.nc.Close()
		lastErr = err
		if !IsTransient(err) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("client: %d attempts failed, last: %w", c.cfg.Retries+1, lastErr)
}

// one runs a single request and unwraps StatusErr into a ServerError and
// StatusMoved into a MovedError. The response's values sit in an arena of
// their own, so they are the caller's.
func (c *Client) one(req wire.Request) (wire.Response, error) {
	resps := []wire.Response{{}}
	if _, err := c.do([]wire.Request{req}, resps, nil); err != nil {
		return wire.Response{}, err
	}
	if err := statusError(&resps[0]); err != nil {
		return wire.Response{}, err
	}
	return resps[0], nil
}

// statusError is the error a StatusErr or StatusMoved answer stands for;
// nil for every other status.
func statusError(resp *wire.Response) error {
	switch resp.Status {
	case wire.StatusErr:
		return &ServerError{Op: resp.Op, Msg: string(resp.Value)}
	case wire.StatusMoved:
		return &MovedError{Op: resp.Op, View: resp.View}
	}
	return nil
}

// Ping checks liveness.
func (c *Client) Ping() error {
	_, err := c.one(wire.Request{Op: wire.OpPing})
	return err
}

// Get fetches key; found reports residency.
func (c *Client) Get(key string) (value []byte, found bool, err error) {
	resp, err := c.one(wire.Request{Op: wire.OpGet, Key: key})
	if err != nil {
		return nil, false, err
	}
	return resp.Value, resp.Status == wire.StatusOK, nil
}

// Set stores value under key with the server's default TTL.
func (c *Client) Set(key string, value []byte) error {
	_, err := c.one(wire.Request{Op: wire.OpSet, Key: key, Value: value})
	return err
}

// SetTTL stores value under key with an explicit TTL; ttl <= 0 never
// expires.
func (c *Client) SetTTL(key string, value []byte, ttl time.Duration) error {
	_, err := c.one(wire.Request{Op: wire.OpSetTTL, Key: key, Value: value, TTL: ttl})
	return err
}

// Del removes key; found reports whether it was resident.
func (c *Client) Del(key string) (found bool, err error) {
	resp, err := c.one(wire.Request{Op: wire.OpDel, Key: key})
	if err != nil {
		return false, err
	}
	return resp.Status == wire.StatusOK, nil
}

// MGet fetches keys in one frame. values and found are parallel to keys;
// values[i] is nil where found[i] is false.
func (c *Client) MGet(keys []string) (values [][]byte, found []bool, err error) {
	resp, err := c.one(wire.Request{Op: wire.OpMGet, Keys: keys})
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
	_, err := c.one(wire.Request{Op: wire.OpMSet, Pairs: pairs})
	return err
}

// Stats fetches the server's statistics snapshot as raw JSON (the document
// is described by server.StatsSnapshot).
func (c *Client) Stats() ([]byte, error) {
	resp, err := c.one(wire.Request{Op: wire.OpStats})
	if err != nil {
		return nil, err
	}
	return resp.Value, nil
}

// Replicate applies one replicated store on the server without triggering
// its replica fan-out (OpReplicate is terminal — replication cannot cycle).
// ttl <= 0 uses the server's default TTL.
func (c *Client) Replicate(key string, value []byte, ttl time.Duration) error {
	_, err := c.one(wire.Request{Op: wire.OpReplicate, Key: key, Value: value, TTL: ttl})
	return err
}

// ReplicateDelete applies one replicated delete on the server (OpReplicate
// with wire.FlagNegative; see Replicate).
func (c *Client) ReplicateDelete(key string) error {
	_, err := c.one(wire.Request{Op: wire.OpReplicate, Flags: wire.FlagNegative, Key: key})
	return err
}

// View pushes v to the server's membership agent (OpView) and returns the
// view the agent holds after it. An agent ignores a view no newer than its
// own, so a View at epoch 0 fetches the agent's view.
func (c *Client) View(v wire.View) (wire.View, error) {
	resp, err := c.one(wire.Request{Op: wire.OpView, View: v})
	return resp.View, err
}

// Config returns the client's configuration, defaults filled in.
func (c *Client) Config() Config { return c.cfg }
