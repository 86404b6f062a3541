package client

import (
	"slices"
	"time"

	"repro/internal/wire"
)

// Batch accumulates operations and sends them as one pipelined round trip.
// Not safe for concurrent use (a batch belongs to one goroutine); the
// Client it came from remains safe to share.
//
//	b := cl.NewBatch()
//	b.Set("a", []byte("1"))
//	b.Get("a")
//	res, err := b.Do()       // one write, one flush, responses in order
//	val, found := res[1].Get()
//
// A batch owns the storage its answers are decoded into, requests,
// responses, values and results alike, and reuses it on every Do, so a warm
// batch allocates nothing.
type Batch struct {
	c     *Client
	reqs  []wire.Request
	resps []wire.Response
	arena []byte // every response value, copied out of the read buffer
	res   []Result
}

// NewBatch starts an empty batch.
func (c *Client) NewBatch() *Batch {
	return &Batch{c: c}
}

// Len reports queued operations.
func (b *Batch) Len() int { return len(b.reqs) }

// Reset empties the batch for reuse.
func (b *Batch) Reset() { b.reqs = b.reqs[:0] }

// Ping queues a liveness check.
func (b *Batch) Ping() { b.add(wire.Request{Op: wire.OpPing}) }

// Get queues a lookup.
func (b *Batch) Get(key string) { b.add(wire.Request{Op: wire.OpGet, Key: key}) }

// Set queues a store with the server's default TTL.
func (b *Batch) Set(key string, value []byte) {
	b.add(wire.Request{Op: wire.OpSet, Key: key, Value: value})
}

// SetTTL queues a store with an explicit TTL.
func (b *Batch) SetTTL(key string, value []byte, ttl time.Duration) {
	b.add(wire.Request{Op: wire.OpSetTTL, Key: key, Value: value, TTL: ttl})
}

// Del queues a removal.
func (b *Batch) Del(key string) { b.add(wire.Request{Op: wire.OpDel, Key: key}) }

// MGet queues a multi-key lookup (one frame inside the batch).
func (b *Batch) MGet(keys ...string) { b.add(wire.Request{Op: wire.OpMGet, Keys: keys}) }

// MSet queues a multi-pair store (one frame inside the batch).
func (b *Batch) MSet(pairs ...wire.KV) { b.add(wire.Request{Op: wire.OpMSet, Pairs: pairs}) }

// ReplicateNX queues a replicated store that lands only where key is
// absent (see Client.Replicate).
func (b *Batch) ReplicateNX(key string, value []byte, ttl time.Duration) {
	b.add(wire.Request{Op: wire.OpReplicate, Flags: wire.FlagNX, Key: key, Value: value, TTL: ttl})
}

// ReplicateDelete queues a replicated delete (see Client.ReplicateDelete).
func (b *Batch) ReplicateDelete(key string) {
	b.add(wire.Request{Op: wire.OpReplicate, Flags: wire.FlagNegative, Key: key})
}

func (b *Batch) add(req wire.Request) { b.reqs = append(b.reqs, req) }

// Result is one operation's outcome within a batch. It, and every slice its
// methods return, is valid until its batch's next Do; Reset does not
// invalidate it. Copy what must outlive that.
type Result struct {
	resp *wire.Response
}

// Status returns the raw wire status.
func (r Result) Status() wire.Status { return r.resp.Status }

// Err surfaces a StatusErr or StatusMoved response; nil otherwise.
func (r Result) Err() error { return statusError(r.resp) }

// Get unwraps a queued Get's answer.
func (r Result) Get() (value []byte, found bool) {
	return r.resp.Value, r.resp.Status == wire.StatusOK
}

// Found unwraps a queued Del's answer (or any status-only operation).
func (r Result) Found() bool { return r.resp.Status == wire.StatusOK }

// Values unwraps a queued MGet's answer.
func (r Result) Values() (values [][]byte, found []bool) {
	return r.resp.Values, r.resp.Found
}

// Do sends the batch as one pipelined round trip and returns per-operation
// results in queue order. The whole batch retries together on transient
// errors (same at-least-once caveat as single operations). The batch is
// left populated; Reset clears it for reuse.
//
// The results, and the slices Result.Get and Values return, live in storage
// the batch owns: they are valid until the batch's next Do, which reuses it.
// Reset does not invalidate them.
func (b *Batch) Do() ([]Result, error) {
	n := len(b.reqs)
	if n == 0 {
		return nil, nil
	}
	// Within capacity the earlier responses stay, and with them their warm
	// MGET capacity.
	b.resps = slices.Grow(b.resps[:0], n)[:n]
	arena, err := b.c.do(b.reqs, b.resps, b.arena)
	if err != nil {
		return nil, err
	}
	b.arena = arena
	b.res = b.res[:0]
	for i := range b.resps {
		b.res = append(b.res, Result{resp: &b.resps[i]})
	}
	return b.res, nil
}
