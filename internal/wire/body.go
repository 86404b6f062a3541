package wire

import (
	"encoding/binary"
	"fmt"
	"time"
)

// body is the set of operand fields one opcode payload carries. Fields
// always travel in the order of their bits, so a body describes a payload
// completely: appendReqBody and appendRespBody write one, cursor.reqBody and
// cursor.respBody read one, and each field's wire form and bound are written
// once, in this file, for both ends.
type body uint8

// Body fields, in wire order.
const (
	fToken body = 1 << iota // uint64 lease token
	fTTL                    // uint64 nanoseconds in [0, 2^62]
	fKey                    // uint16-length-prefixed key
	fValue                  // uint32-length-prefixed value of at most MaxValueLen bytes
	fKeys                   // uint16 count of at most MaxBatch, then that many keys
	fPairs                  // uint16 count of at most MaxBatch, then that many key/value pairs
	fView                   // uint64 epoch, member table, replica table
	fFound                  // uint16 count of at most MaxBatch, then per key a presence byte and, if 1, a value
)

// opDesc is one opcode's row in the ops table.
type opDesc struct {
	name string
	// req is the request body; reqBody varies it by flags.
	req body
	// resp is the response body; respBody varies it by status.
	resp body
	// alias lets the zero-copy decoders hand out keys, values and the
	// namespace as views of the frame buffer. Only lookups set it, since
	// their operands die with the frame; every other op's receiver keeps its
	// operands (a cache, the lease table, the membership agent), so a row
	// without the bit copies.
	alias bool
}

// ops describes every opcode once. The encoders, the decoders and Op.String
// all read it.
var ops = [opMax]opDesc{
	OpPing:      {name: "PING"},
	OpGet:       {name: "GET", req: fKey, resp: fValue, alias: true},
	OpSet:       {name: "SET", req: fKey | fValue, resp: fValue},
	OpSetTTL:    {name: "SETTTL", req: fTTL | fKey | fValue, resp: fValue},
	OpDel:       {name: "DEL", req: fKey, alias: true},
	OpMGet:      {name: "MGET", req: fKeys, resp: fFound, alias: true},
	OpMSet:      {name: "MSET", req: fPairs},
	OpStats:     {name: "STATS", resp: fValue},
	OpLoad:      {name: "LOAD", req: fKey, resp: fValue},
	OpView:      {name: "VIEW", req: fView},
	OpReplicate: {name: "REPLICATE", req: fTTL | fKey | fValue},
}

// reqBody is the body of a request for the valid op under flags fl; ok is
// false for the one refused combination, FlagNegative on a LOAD without
// FlagFill. Two ops vary their row by flag: a LOAD fill carries the lease
// token, the key and the origin's value (no value under FlagNegative: the
// origin reported the key absent), and a negative REPLICATE, a replicated
// delete, carries the key alone.
func reqBody(op Op, fl uint8) (b body, ok bool) {
	b, neg := ops[op].req, fl&FlagNegative != 0
	switch op {
	case OpLoad:
		if fl&FlagFill == 0 {
			return b, !neg
		}
		b |= fToken | fValue
		if neg {
			b &^= fValue
		}
	case OpReplicate:
		if neg {
			b &^= fTTL | fValue
		}
	}
	return b, true
}

// respBody is the body of a response to the valid op under the valid status
// st. StatusErr carries its message as a value on every op, and an MGET
// answer carries its found-list on every other status. LOAD's body follows
// its status: OK carries the value, STALE the refresh token and the stale
// value, LEASE the fetch token, NOT_FOUND and NOT_STORED nothing. Any other
// op carries its row's body on OK and NOT_STORED, and nothing otherwise.
func respBody(op Op, st Status) body {
	b := ops[op].resp
	switch {
	case st == StatusErr:
		return fValue
	case b == fFound, st == StatusOK:
		return b
	case op == OpLoad:
		switch st {
		case StatusStale:
			return fToken | b
		case StatusLease:
			return fToken
		}
		return 0
	case st == StatusNotStored:
		return b
	}
	return 0
}

// ttlFits reports whether a TTL of ns nanoseconds is in the wire's range,
// [0, 2^62] (about 146 years), inside which a decoded TTL converts to a
// time.Duration with room to add it to a clock reading.
func ttlFits(ns uint64) bool { return ns <= 1<<62 }

// valueFits reports whether a value of n bytes is within lim.
func valueFits(n uint64, lim Limits) bool { return n <= uint64(lim.MaxValueLen) }

// countFits reports whether a batch or table of n entries is within lim.
func countFits(n int, lim Limits) bool { return n <= lim.MaxBatch }

// appendReqBody appends req's fields of body b in wire order, refusing any
// operand the decoder would refuse.
func appendReqBody(buf []byte, b body, req *Request, lim Limits) ([]byte, error) {
	var err error
	if b&fToken != 0 {
		buf = binary.BigEndian.AppendUint64(buf, req.Token)
	}
	if b&fTTL != 0 {
		ttl := uint64(max(req.TTL, 0))
		if !ttlFits(ttl) {
			return buf, fmt.Errorf("wire: TTL %v exceeds 2^62 ns", req.TTL)
		}
		buf = binary.BigEndian.AppendUint64(buf, ttl)
	}
	if b&fKey != 0 {
		if buf, err = appendKey(buf, req.Key); err != nil {
			return buf, err
		}
	}
	if b&fValue != 0 {
		if buf, err = appendValue(buf, req.Value, lim); err != nil {
			return buf, err
		}
	}
	if b&fKeys != 0 {
		if buf, err = appendCount(buf, len(req.Keys), lim, "MGET batch"); err != nil {
			return buf, err
		}
		for _, k := range req.Keys {
			if buf, err = appendKey(buf, k); err != nil {
				return buf, err
			}
		}
	}
	if b&fPairs != 0 {
		if buf, err = appendCount(buf, len(req.Pairs), lim, "MSET batch"); err != nil {
			return buf, err
		}
		for _, kv := range req.Pairs {
			if buf, err = appendKey(buf, kv.Key); err != nil {
				return buf, err
			}
			if buf, err = appendValue(buf, kv.Value, lim); err != nil {
				return buf, err
			}
		}
	}
	if b&fView != 0 {
		return appendMembership(buf, req, lim)
	}
	return buf, nil
}

// appendRespBody appends resp's fields of body b in wire order, refusing any
// operand the decoder would refuse.
func appendRespBody(buf []byte, b body, resp *Response, lim Limits) ([]byte, error) {
	var err error
	if b&fToken != 0 {
		buf = binary.BigEndian.AppendUint64(buf, resp.Token)
	}
	if b&fValue != 0 {
		if buf, err = appendValue(buf, resp.Value, lim); err != nil {
			return buf, err
		}
	}
	if b&fFound != 0 {
		if len(resp.Values) != len(resp.Found) {
			return buf, fmt.Errorf("wire: MGET response with %d values but %d found flags", len(resp.Values), len(resp.Found))
		}
		if buf, err = appendCount(buf, len(resp.Values), lim, "MGET response batch"); err != nil {
			return buf, err
		}
		for i, v := range resp.Values {
			if !resp.Found[i] {
				buf = append(buf, 0)
				continue
			}
			if buf, err = appendValue(append(buf, 1), v, lim); err != nil {
				return buf, err
			}
		}
	}
	return buf, nil
}

// reqBody reads the fields of body b into req, in wire order.
func (c *cursor) reqBody(b body, req *Request, lim Limits) (err error) {
	if b&fToken != 0 {
		if req.Token, err = c.u64(); err != nil {
			return err
		}
	}
	if b&fTTL != 0 {
		ttl, err := c.u64()
		if err != nil {
			return err
		}
		if !ttlFits(ttl) {
			return frameErrf("TTL %d overflows a duration", ttl)
		}
		req.TTL = time.Duration(ttl)
	}
	if b&fKey != 0 {
		if req.Key, err = c.key(); err != nil {
			return err
		}
	}
	if b&fValue != 0 {
		if req.Value, err = c.value(lim); err != nil {
			return err
		}
	}
	if b&fKeys != 0 {
		// Each key costs at least its 2-byte length prefix.
		n, err := c.count(lim, 2)
		if err != nil {
			return err
		}
		keys := req.Keys
		for i := 0; i < n; i++ {
			k, err := c.key()
			if err != nil {
				return err
			}
			keys = append(keys, k)
		}
		req.Keys = keys
	}
	if b&fPairs != 0 {
		// Each pair costs at least its 2+4 bytes of length prefixes.
		n, err := c.count(lim, 2+4)
		if err != nil {
			return err
		}
		pairs := req.Pairs
		for i := 0; i < n; i++ {
			var kv KV
			if kv.Key, err = c.key(); err != nil {
				return err
			}
			if kv.Value, err = c.value(lim); err != nil {
				return err
			}
			pairs = append(pairs, kv)
		}
		req.Pairs = pairs
	}
	if b&fView != 0 {
		if req.Epoch, err = c.u64(); err != nil {
			return err
		}
		if req.Members, err = c.members(lim); err != nil {
			return err
		}
		req.Replicas, err = c.replicaSets(lim)
	}
	return err
}

// respBody reads the fields of body b into resp, in wire order.
func (c *cursor) respBody(b body, resp *Response, lim Limits) (err error) {
	if b&fToken != 0 {
		if resp.Token, err = c.u64(); err != nil {
			return err
		}
	}
	if b&fValue != 0 {
		if resp.Value, err = c.value(lim); err != nil {
			return err
		}
	}
	if b&fFound != 0 {
		// Each entry costs at least its 1-byte presence flag.
		n, err := c.count(lim, 1)
		if err != nil {
			return err
		}
		found, values := resp.Found, resp.Values
		for i := 0; i < n; i++ {
			p, err := c.take(1)
			if err != nil {
				return err
			}
			var v []byte
			switch p[0] {
			case 0:
			case 1:
				if v, err = c.value(lim); err != nil {
					return err
				}
			default:
				return frameErrf("bad presence byte %d", p[0])
			}
			found, values = append(found, p[0] == 1), append(values, v)
		}
		resp.Found, resp.Values = found, values
	}
	return nil
}

// appendKey appends a uint16-length-prefixed key.
func appendKey(buf []byte, k string) ([]byte, error) {
	if len(k) > MaxKeyLen {
		return buf, errTooLong("key", len(k), MaxKeyLen)
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(k)))
	return append(buf, k...), nil
}

// appendValue appends a uint32-length-prefixed value.
func appendValue(buf []byte, v []byte, lim Limits) ([]byte, error) {
	if !valueFits(uint64(len(v)), lim) {
		return buf, errTooLong("value", len(v), lim.MaxValueLen)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(v)))
	return append(buf, v...), nil
}

// sizeError refuses a key or value too long to send. It formats its
// message only when read, so that errTooLong, unlike an fmt.Errorf, leaves
// appendKey and appendValue small enough to inline into the per-key loops.
type sizeError struct {
	what   string
	n, max int
}

func errTooLong(what string, n, max int) error { return &sizeError{what, n, max} }

func (e *sizeError) Error() string {
	return fmt.Sprintf("wire: %s of %d bytes exceeds %d", e.what, e.n, e.max)
}

// appendCount appends the uint16 entry count of a batch or table.
func appendCount(buf []byte, n int, lim Limits, what string) ([]byte, error) {
	if !countFits(n, lim) {
		return buf, fmt.Errorf("wire: %s of %d exceeds %d", what, n, lim.MaxBatch)
	}
	return binary.BigEndian.AppendUint16(buf, uint16(n)), nil
}

// key reads one uint16-length-prefixed key.
func (c *cursor) key() (string, error) {
	n, err := c.u16()
	if err != nil {
		return "", err
	}
	s, err := c.bytes(int(n))
	return unsafeString(s), err
}

// value reads one uint32-length-prefixed value, refusing a length past the
// limit before reading the bytes.
func (c *cursor) value(lim Limits) ([]byte, error) {
	n, err := c.u32()
	if err != nil {
		return nil, err
	}
	if !valueFits(uint64(n), lim) {
		return nil, frameErrf("value length %d exceeds limit %d", n, lim.MaxValueLen)
	}
	return c.bytes(int(n))
}

// count reads the uint16 entry count of a batch or table. Each entry needs
// at least min bytes, so the count is cross-checked against the bytes
// present: a tiny frame cannot demand a huge allocation.
func (c *cursor) count(lim Limits, min int) (int, error) {
	n16, err := c.u16()
	if err != nil {
		return 0, err
	}
	n := int(n16)
	if !countFits(n, lim) {
		return 0, frameErrf("batch of %d entries exceeds limit %d", n, lim.MaxBatch)
	}
	if n > c.remaining()/min {
		return 0, frameErrf("batch count %d exceeds payload capacity", n)
	}
	return n, nil
}
