package server

import (
	"bufio"
	"errors"
	"io"
	"net"
	"os"
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

	// draining is set by startDrain and read by the handler whenever it arms
	// a read deadline (see Read for the ordering that makes one load enough).
	draining atomic.Bool

	// inFrame says which wait the next socket read is — the idle wait for a
	// frame's first byte, or the wait for the rest of a frame — and armed
	// that the frame's ReadTimeout is already on the socket. Handler-owned.
	inFrame, armed bool

	// mu guards closed.
	//lint:rank 1
	mu     sync.Mutex
	closed bool

	// trace is the per-connection scratch for the response trace echo, so a
	// traced request does not allocate a TraceExt per reply. Safe because
	// the response is fully encoded before the next request reuses it.
	trace wire.TraceExt
}

func newConn(s *Server, nc net.Conn) *conn {
	c := &conn{srv: s, nc: nc, bw: bufio.NewWriterSize(nc, 32<<10)}
	c.br = bufio.NewReaderSize(c, 32<<10)
	return c
}

// Read is the socket under c.br and the only place a read deadline is armed:
// a frame served from the buffer reaches neither the clock nor the timer
// heap. At a frame boundary a read is the idle wait and gets IdleTimeout;
// inside a frame the first read arms ReadTimeout and later reads of the same
// frame reuse it, so the bound stays on the whole frame — a sender trickling
// bytes is cut at ReadTimeout, not extended per byte.
//
// The deadline is armed before the drain flag is read, and startDrain sets
// the flag before it arms its own past deadline: either this load sees the
// flag, or startDrain's deadline lands after the one armed here and wakes
// the read. A drain can therefore never be overwritten and slept through —
// at a frame boundary or waiting for the rest of a frame.
func (c *conn) Read(p []byte) (int, error) {
	if !c.armed {
		limit := c.srv.cfg.IdleTimeout
		if c.inFrame {
			limit = c.srv.cfg.ReadTimeout
		}
		var deadline time.Time // zero: no idle limit
		if limit > 0 {
			deadline = wallClock().Add(limit)
		}
		c.nc.SetReadDeadline(deadline)
		c.armed = c.inFrame
		if c.draining.Load() {
			// What the socket would say had startDrain's deadline landed last.
			return 0, os.ErrDeadlineExceeded
		}
	}
	return c.nc.Read(p)
}

// startDrain asks the handler to stop after the requests it has already
// read: the flag fails its next socket read — frames already buffered are
// still served — and the past read deadline wakes a read that is already
// blocked.
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
		// First byte present: the rest of the frame is bounded by ReadTimeout.
		c.inFrame = true
		// Stage clocks tick when the server is instrumented or the frame
		// itself asks for timing, which its header says before it is decoded;
		// any other frame is served without a clock read. t0 starts the
		// decode stage, and a traced request's QueueMicros counts from it.
		timed := c.srv.timed || c.traced()
		var t0, t1, t2 time.Time
		if timed {
			t0 = wallClock()
		}
		var err error
		rbuf, err = wire.ReadRequestInto(&req, c.br, rbuf, wire.Limits{})
		c.inFrame, c.armed = false, false
		if err != nil {
			c.readFailed(err)
			return
		}
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
		wbuf, err = wire.AppendResponse(wbuf, &resp, wire.Limits{})
		if err != nil {
			// Response exceeds wire limits (e.g. a cached value larger than
			// the reply cap): degrade to an in-protocol error, keeping the
			// trace echo so a failing traced request still yields a sample.
			resp = wire.Response{Op: resp.Op, ID: resp.ID, Status: wire.StatusErr, Value: []byte(err.Error()), Trace: resp.Trace}
			if wbuf, err = wire.AppendResponse(wbuf[:0], &resp, wire.Limits{}); err != nil {
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
			c.srv.observeRequest(req.Op, t1.Sub(t0), t2.Sub(t1), wallClock().Sub(t2), req.Trace)
		}
	}
}

// awaitFrame blocks until a frame's first byte is buffered and reports
// true, or reports false when the connection is done: drained, idle for
// IdleTimeout, closed by the peer, or failed. A pipelined frame is already
// buffered and costs nothing; an idle connection sits in the one Peek —
// nothing wakes it but a byte, its idle deadline or a drain (see Read).
func (c *conn) awaitFrame() bool {
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

// traced reports whether the frame at the head of the buffer carries
// wire.FlagTrace (header byte 3, the flags). A header that cannot be read
// reports true: the clock read is harmless and ReadRequestInto meets the
// same error next.
func (c *conn) traced() bool {
	h, err := c.br.Peek(4)
	return err != nil || h[3]&wire.FlagTrace != 0
}

// readFailed classifies a mid-frame read error: a malformed frame earns a
// best-effort in-protocol error before the close; everything else (client
// hangup, drain wake-up) just closes.
func (c *conn) readFailed(err error) {
	if errors.Is(err, wire.ErrFrame) {
		c.srv.protoErrors.Add(1)
		resp := wire.Response{Op: wire.OpPing, Status: wire.StatusErr, Value: []byte(err.Error())}
		if b, aerr := wire.AppendResponse(nil, &resp, wire.Limits{}); aerr == nil {
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
