package client

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
)

// End-to-end request tracing. With Config.TraceEvery = N, every N-th
// operation carries a wire trace extension: a client-generated trace id and
// the client's send timestamp. The server echoes both and adds its own
// queue and handle timings, so one traced round trip yields a three-way
// latency split without any clock synchronization:
//
//	total  = client receive − client send    (one clock: the client's)
//	server = queue + handle                  (one clock: the server's)
//	net    = total − server                  (wire + kernel + scheduling)
//
// The same trace id tags the server's EvSlowRequest events, joining
// client-observed spikes to server-side cause (see cmd/stemtrace).

// TraceSample is one completed traced operation.
type TraceSample struct {
	// Op is the traced operation's opcode.
	Op wire.Op
	// TraceID is the id carried on the wire (also in any matching
	// EvSlowRequest event on the server's timeline).
	TraceID uint64
	// Status is the response status (traced errors still yield samples).
	Status wire.Status
	// Total is the client-observed round-trip time.
	Total time.Duration
	// Server is the server-reported portion (queue + handle).
	Server time.Duration
	// Net is Total − Server, clamped at 0: wire transit, kernel buffers
	// and scheduling delay on both ends.
	Net time.Duration
}

// mix64 is one splitmix64 step: a cheap bijective scrambler that turns
// sequential values into well-distributed ids.
func mix64(v uint64) uint64 { return sim.Mix64(v + 0x9e3779b97f4a7c15) }

// nowMicros reads the client's monotonic clock as microseconds since the
// client's epoch. Monotonic (time.Since uses the monotonic reading), so a
// wall-clock step cannot produce a negative latency.
func (c *Client) nowMicros() uint64 {
	return uint64(wallClock().Sub(c.epoch).Microseconds())
}

// attachTrace decides whether req travels traced and stamps the extension.
// Called once per attempt: a retried request keeps its trace id (it is the
// same logical operation) but gets a fresh send timestamp, so the sample
// measures the attempt that actually completed, not the sum of attempts.
func (c *Client) attachTrace(req *wire.Request) {
	if req.Trace != nil {
		req.Trace.SendMicros = c.nowMicros()
		return
	}
	n := c.cfg.TraceEvery
	if n <= 0 {
		return
	}
	seq := c.traceSeq.Add(1)
	if (seq-1)%uint64(n) != 0 {
		return
	}
	req.Trace = &wire.TraceExt{
		ID:         c.traceSalt ^ mix64(seq),
		SendMicros: c.nowMicros(),
	}
}

// finishTrace validates and records the echoed trace of one response. A
// traced request whose response lacks the extension — or echoes a different
// id — indicates stream desynchronization, the same class of fault as an id
// mismatch, and poisons the connection.
func (c *Client) finishTrace(req *wire.Request, resp *wire.Response) error {
	if req.Trace == nil {
		return nil
	}
	if resp.Trace == nil {
		return fmt.Errorf("%w: traced request (id %d) answered without trace echo", wire.ErrFrame, req.ID)
	}
	if resp.Trace.ID != req.Trace.ID {
		return fmt.Errorf("%w: trace id %#x echoed as %#x", wire.ErrFrame, req.Trace.ID, resp.Trace.ID)
	}
	// The echoed SendMicros came off this client's clock, so now ≥ send;
	// clamp anyway so a misbehaving peer cannot underflow into a bogus
	// multi-century sample.
	totalUS := uint64(0)
	if now := c.nowMicros(); now > resp.Trace.SendMicros {
		totalUS = now - resp.Trace.SendMicros
	}
	serverUS := uint64(resp.Trace.QueueMicros) + uint64(resp.Trace.HandleMicros)
	netUS := uint64(0)
	if totalUS > serverUS {
		netUS = totalUS - serverUS
	}
	c.latTotal.Observe(totalUS)
	c.latServer.Observe(serverUS)
	c.latNet.Observe(netUS)
	if c.cfg.OnTrace != nil {
		c.cfg.OnTrace(TraceSample{
			Op:      resp.Op,
			TraceID: resp.Trace.ID,
			Status:  resp.Status,
			Total:   time.Duration(totalUS) * time.Microsecond,
			Server:  time.Duration(serverUS) * time.Microsecond,
			Net:     time.Duration(netUS) * time.Microsecond,
		})
	}
	return nil
}
