package server

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// conn is one served connection. All I/O happens on its handler goroutine;
// the drain and close flags are what Close's goroutine flips.
type conn struct {
	srv *Server
	nc  net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer

	// draining is set by startDrain and read by the handler at every frame
	// boundary (see awaitFrame for the ordering that makes one load enough).
	draining atomic.Bool

	// mu guards closed. Rank: below Server.mu (the server locks conn.mu
	// while holding nothing, or after releasing its own mu).
	mu     sync.Mutex
	closed bool

	// trace is the per-connection scratch for the response trace echo, so a
	// traced request does not allocate a TraceExt per reply. Safe because
	// the response is fully encoded before the next request reuses it.
	trace wire.TraceExt
}

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{
		srv: s,
		nc:  nc,
		br:  bufio.NewReaderSize(nc, 32<<10),
		bw:  bufio.NewWriterSize(nc, 32<<10),
	}
}

// startDrain asks the handler to stop after the requests it has already
// read: the flag makes the read loop exit at the next frame boundary, and
// the past read deadline wakes a read that is already blocked.
func (c *conn) startDrain() {
	c.draining.Store(true)
	c.nc.SetReadDeadline(aLongTimeAgo)
}

// forceClose cuts the connection; used when the drain grace expires.
func (c *conn) forceClose() {
	c.mu.Lock()
	closed := c.closed
	c.closed = true
	c.mu.Unlock()
	if !closed {
		c.nc.Close()
	}
}

// serve is the connection's request loop: wait for a frame, read it fully,
// execute, queue the response, and flush once no further pipelined input is
// already buffered.
func (c *conn) serve() {
	defer c.finish()
	var (
		rbuf []byte // frame read buffer, reused across requests
		wbuf []byte // response build buffer, reused across flushes
		req  wire.Request
		resp wire.Response
	)
	for c.awaitFrame() {
		// First byte present: the whole frame must land within ReadTimeout.
		// t0 doubles as the decode stage's start — the clock read feeding
		// the deadline is the one every request pays anyway.
		t0 := wallClock()
		c.nc.SetReadDeadline(t0.Add(c.srv.cfg.ReadTimeout))
		var err error
		rbuf, err = wire.ReadRequestInto(&req, c.br, rbuf, c.srv.lim)
		if err != nil {
			c.readFailed(err)
			return
		}

		// Stage clocks tick when the server is instrumented or the request
		// itself asks for timing; otherwise the loop stays at one read per
		// request.
		timed := c.srv.timed || req.Trace != nil
		var t1, t2 time.Time
		if timed {
			t1 = wallClock()
		}
		c.srv.handle(&req, &resp)
		if timed {
			t2 = wallClock()
		}
		if req.Trace != nil {
			// Echo the extension with the server-side split filled in, so
			// the client can separate server time from network time. The
			// conn-owned scratch keeps traced replies allocation-free.
			c.trace = wire.TraceExt{
				ID:           req.Trace.ID,
				SendMicros:   req.Trace.SendMicros,
				QueueMicros:  wire.SaturateMicros(t1.Sub(t0)),
				HandleMicros: wire.SaturateMicros(t2.Sub(t1)),
			}
			resp.Trace = &c.trace
		}
		wbuf = wbuf[:0]
		wbuf, err = wire.AppendResponse(wbuf, &resp, c.srv.lim)
		if err != nil {
			// Response exceeds wire limits (e.g. a cached value larger than
			// the reply cap): degrade to an in-protocol error, keeping the
			// trace echo so a failing traced request still yields a sample.
			resp = wire.Response{Op: resp.Op, ID: resp.ID, Status: wire.StatusErr, Value: []byte(err.Error()), Trace: resp.Trace}
			if wbuf, err = wire.AppendResponse(wbuf[:0], &resp, c.srv.lim); err != nil {
				return
			}
		}
		if _, err := c.bw.Write(wbuf); err != nil {
			c.srv.ioErrors.Add(1)
			return
		}
		// Pipelining: only flush when the reader holds no queued frame, so
		// a burst of requests costs one syscall-sized write, not N.
		if c.br.Buffered() == 0 {
			c.nc.SetWriteDeadline(wallClock().Add(c.srv.cfg.WriteTimeout))
			if err := c.bw.Flush(); err != nil {
				c.srv.ioErrors.Add(1)
				return
			}
		}
		if timed {
			c.srv.observeRequest(req.Op, req.Namespace, t1.Sub(t0), t2.Sub(t1), wallClock().Sub(t2), req.Trace)
		}
	}
}

// awaitFrame blocks until a frame's first byte is buffered and reports
// true, or reports false when the connection is done: drained, idle for
// IdleTimeout, closed by the peer, or failed. An idle connection sits in the
// one Peek — nothing wakes it but a byte, its idle deadline or a drain.
//
// The deadline is armed before the drain flag is read, and startDrain sets
// the flag before it arms its own past deadline: either this load sees the
// flag, or startDrain's deadline lands after the one armed here and wakes
// the Peek. A drain can therefore never be overwritten and slept through.
func (c *conn) awaitFrame() bool {
	var deadline time.Time // zero: no idle limit
	if it := c.srv.cfg.IdleTimeout; it > 0 {
		deadline = wallClock().Add(it)
	}
	c.nc.SetReadDeadline(deadline)
	if c.draining.Load() {
		return false
	}
	if _, err := c.br.Peek(1); err != nil {
		// A timeout is the idle deadline or the drain wake-up, EOF a clean
		// hangup; anything else is an I/O failure.
		var ne net.Error
		if err != io.EOF && !(errors.As(err, &ne) && ne.Timeout()) {
			c.srv.ioErrors.Add(1)
		}
		return false
	}
	return true
}

// readFailed classifies a mid-frame read error: a malformed frame earns a
// best-effort in-protocol error before the close; everything else (client
// hangup, drain wake-up) just closes.
func (c *conn) readFailed(err error) {
	if errors.Is(err, wire.ErrFrame) {
		c.srv.protoErrors.Add(1)
		resp := wire.Response{Op: wire.OpPing, Status: wire.StatusErr, Value: []byte(err.Error())}
		if b, aerr := wire.AppendResponse(nil, &resp, c.srv.lim); aerr == nil {
			c.nc.SetWriteDeadline(wallClock().Add(c.srv.cfg.WriteTimeout))
			c.bw.Write(b)
		}
		return
	}
	if err != io.EOF && !c.draining.Load() {
		c.srv.ioErrors.Add(1)
	}
}

// finish flushes whatever responses are still buffered (the drain
// guarantee: requests that were read get their responses) and closes.
func (c *conn) finish() {
	c.mu.Lock()
	closed := c.closed
	c.closed = true
	c.mu.Unlock()
	if closed {
		return
	}
	c.nc.SetWriteDeadline(wallClock().Add(c.srv.cfg.WriteTimeout))
	c.bw.Flush()
	c.nc.Close()
}
