package wire

import (
	"encoding/binary"
	"io"
)

// DecodeRequest parses one request frame from data, returning the request
// and the number of bytes consumed. It is the pure-bytes core the stream
// reader and the fuzz target share: every length is validated against the
// bytes actually present before anything is allocated. Every decoded
// operand owns its bytes — safe to retain after data is reused.
func DecodeRequest(data []byte, lim Limits) (*Request, int, error) {
	req := &Request{}
	n, err := decodeRequest(req, data, lim, false)
	if err != nil {
		return nil, 0, err
	}
	return req, n, nil
}

// DecodeRequestInto is the zero-allocation form of DecodeRequest: it
// decodes into a caller-owned Request, reusing its Keys/Pairs capacity. The
// operands of GET, DEL and MGET (keys and namespace) alias data, valid only
// until the buffer is reused; every other op's operands are copied, because
// its receiver keeps them (see opDesc.alias), so a handler may pass them
// straight on. This is the server's per-op read path: with a reused Request
// and buffer, GET and MGET decode with zero allocations.
func DecodeRequestInto(req *Request, data []byte, lim Limits) (int, error) {
	return decodeRequest(req, data, lim, true)
}

// openFrame validates data's header, length and opcode and points c at
// exactly the frame's payload. The cursor aliases data only when into is set
// and the op's row allows it: the one copy-or-alias decision.
func openFrame(c *cursor, data []byte, lim Limits, into bool) (Op, uint8, error) {
	opB, fl, n, err := parseHeader(data, lim.MaxPayload)
	if err != nil {
		return 0, 0, err
	}
	if len(data)-HeaderLen < n {
		return 0, 0, frameErrf("truncated frame: payload wants %d bytes, have %d", n, len(data)-HeaderLen)
	}
	op := Op(opB)
	if !op.Valid() {
		return 0, 0, frameErrf("unknown opcode %d", opB)
	}
	*c = cursor{b: data[HeaderLen : HeaderLen+n], alias: into && ops[op].alias}
	return op, fl, nil
}

func decodeRequest(req *Request, data []byte, lim Limits, into bool) (int, error) {
	lim = lim.withDefaults()
	var c cursor
	op, fl, err := openFrame(&c, data, lim, into)
	if err != nil {
		return 0, err
	}
	req.Reset()
	req.Op = op
	req.ID = binary.BigEndian.Uint32(data[4:8])
	req.Flags = fl
	if fl&FlagTrace != 0 {
		if req.Trace, err = c.traceReq(); err != nil {
			return 0, err
		}
	}
	if fl&FlagTenant != 0 {
		if req.Namespace, err = c.namespace(); err != nil {
			return 0, err
		}
	}
	b, ok := reqBody(op, fl)
	if !ok {
		return 0, frameErrf("FlagNegative without FlagFill")
	}
	if err := c.reqBody(b, req, lim); err != nil {
		return 0, err
	}
	if err := c.done(); err != nil {
		return 0, err
	}
	return HeaderLen + len(c.b), nil
}

// members reads the OpView member table. Each member costs at least
// id + state + addr-length bytes, so the count is capacity-checked before
// any allocation.
func (c *cursor) members(lim Limits) ([]Member, error) {
	n, err := c.count(lim, 4+1+2)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	members := make([]Member, 0, n)
	for i := 0; i < n; i++ {
		var m Member
		if m.ID, err = c.u32(); err != nil {
			return nil, err
		}
		p, err := c.take(1)
		if err != nil {
			return nil, err
		}
		if p[0] >= uint8(memberStateMax) {
			return nil, frameErrf("unknown member state %d", p[0])
		}
		m.State = MemberState(p[0])
		if m.Addr, err = c.key(); err != nil {
			return nil, err
		}
		members = append(members, m)
	}
	return members, nil
}

// replicaSets reads the OpView replica-assignment table. The outer
// count and each slot's uint8 replica count are capacity-checked against
// the bytes present before their allocations.
func (c *cursor) replicaSets(lim Limits) ([]ReplicaSet, error) {
	n, err := c.count(lim, 4+1)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	sets := make([]ReplicaSet, 0, n)
	for i := 0; i < n; i++ {
		var rs ReplicaSet
		if rs.Slot, err = c.u32(); err != nil {
			return nil, err
		}
		p, err := c.take(1)
		if err != nil {
			return nil, err
		}
		nr := int(p[0])
		if nr > c.remaining()/4 {
			return nil, frameErrf("replica count %d exceeds payload capacity", nr)
		}
		if nr > 0 {
			rs.Replicas = make([]uint32, 0, nr)
		}
		for j := 0; j < nr; j++ {
			r, err := c.u32()
			if err != nil {
				return nil, err
			}
			rs.Replicas = append(rs.Replicas, r)
		}
		sets = append(sets, rs)
	}
	return sets, nil
}

// DecodeResponse parses one response frame from data, returning the
// response and the number of bytes consumed. Every decoded value owns its
// bytes — safe to retain after data is reused.
func DecodeResponse(data []byte, lim Limits) (*Response, int, error) {
	resp := &Response{}
	n, err := decodeResponse(resp, data, lim, false)
	if err != nil {
		return nil, 0, err
	}
	return resp, n, nil
}

// DecodeResponseInto is the zero-allocation form of DecodeResponse: it
// decodes into a caller-owned Response, reusing its Found/Values capacity.
// As in DecodeRequestInto, the values of GET, DEL and MGET responses alias
// data, so a caller that keeps one must copy it; other values are copied.
// With a reused Response and buffer, GET and MGET decode with zero
// allocations.
func DecodeResponseInto(resp *Response, data []byte, lim Limits) (int, error) {
	return decodeResponse(resp, data, lim, true)
}

func decodeResponse(resp *Response, data []byte, lim Limits, into bool) (int, error) {
	lim = lim.withDefaults()
	var c cursor
	op, st, err := openFrame(&c, data, lim, into)
	if err != nil {
		return 0, err
	}
	// The status byte's high bits flag the trace and demand prefixes; mask
	// them off before validating the status proper.
	status := Status(st &^ (respFlagTrace | respFlagDemand))
	if !status.Valid() {
		return 0, frameErrf("unknown status %d", uint8(status))
	}
	resp.Reset()
	resp.Op = op
	resp.ID = binary.BigEndian.Uint32(data[4:8])
	resp.Status = status
	if st&respFlagTrace != 0 {
		if resp.Trace, err = c.traceResp(); err != nil {
			return 0, err
		}
	}
	if st&respFlagDemand != 0 {
		if resp.Piggyback, err = c.demand(); err != nil {
			return 0, err
		}
	}
	if err := c.respBody(respBody(op, status), resp, lim); err != nil {
		return 0, err
	}
	if err := c.done(); err != nil {
		return 0, err
	}
	return HeaderLen + len(c.b), nil
}

// demand reads the fixed 52-byte demand prefix of a respFlagDemand response
// (a prefix, which is why it checks remaining, not total, bytes). The size
// check up front turns every truncation into one error instead of nine
// partial reads.
func (c *cursor) demand() (*NodeDemand, error) {
	if c.remaining() < nodeDemandLen {
		return nil, frameErrf("truncated demand prefix: want %d bytes, have %d", nodeDemandLen, c.remaining())
	}
	var d NodeDemand
	var err error
	for _, p := range []*uint32{&d.NodeID, &d.Sets, &d.TakerSets, &d.GiverSets, &d.CoupledSets} {
		if *p, err = c.u32(); err != nil {
			return nil, err
		}
	}
	for _, p := range []*uint64{&d.ScSSum, &d.ScSMax, &d.Live, &d.Capacity} {
		if *p, err = c.u64(); err != nil {
			return nil, err
		}
	}
	return &d, nil
}

// namespace reads the uint8-length-prefixed namespace prefix of a FlagTenant
// request. A flagged frame must carry a non-empty name of at most
// MaxNamespaceLen bytes — an empty or oversized prefix is a protocol error,
// so "default tenant" has exactly one encoding (no flag, no prefix).
func (c *cursor) namespace() (string, error) {
	p, err := c.take(1)
	if err != nil {
		return "", frameErrf("truncated namespace prefix: no length byte")
	}
	n := int(p[0])
	if n == 0 {
		return "", frameErrf("empty namespace with FlagTenant set")
	}
	if n > MaxNamespaceLen {
		return "", frameErrf("namespace of %d bytes exceeds %d", n, MaxNamespaceLen)
	}
	s, err := c.bytes(n)
	return unsafeString(s), err
}

// traceReq reads the 16-byte request trace prefix. The size check up front
// turns a truncation into one error instead of two partial reads.
func (c *cursor) traceReq() (*TraceExt, error) {
	if c.remaining() < traceReqLen {
		return nil, frameErrf("truncated trace extension: want %d bytes, have %d", traceReqLen, c.remaining())
	}
	var t TraceExt
	var err error
	if t.ID, err = c.u64(); err != nil {
		return nil, err
	}
	if t.SendMicros, err = c.u64(); err != nil {
		return nil, err
	}
	return &t, nil
}

// traceResp reads the 24-byte response trace prefix.
func (c *cursor) traceResp() (*TraceExt, error) {
	if c.remaining() < traceRespLen {
		return nil, frameErrf("truncated trace extension: want %d bytes, have %d", traceRespLen, c.remaining())
	}
	t, err := c.traceReq()
	if err != nil {
		return nil, err
	}
	if t.QueueMicros, err = c.u32(); err != nil {
		return nil, err
	}
	if t.HandleMicros, err = c.u32(); err != nil {
		return nil, err
	}
	return t, nil
}

// ReadRequestInto reads exactly one request frame from r into a
// caller-owned Request (see DecodeRequestInto for the aliasing contract:
// lookup-only operands alias buf until the next read reuses it). Header and
// payload are buffered through buf (grown as needed, never beyond the
// limits) and the possibly reallocated buffer is returned for reuse. An
// io.EOF before the first header byte is returned as io.EOF so servers can
// distinguish a clean connection close from a truncated frame
// (io.ErrUnexpectedEOF). With a warm buffer and Request this path performs
// zero allocations per frame, which is why the server's serve loop uses it.
func ReadRequestInto(req *Request, r io.Reader, buf []byte, lim Limits) ([]byte, error) {
	lim = lim.withDefaults()
	buf, err := readFrame(r, buf, lim)
	if err != nil {
		return buf, err
	}
	_, err = decodeRequest(req, buf, lim, true)
	return buf, err
}

// ReadResponse reads exactly one response frame from r, buffering it
// through buf as ReadRequestInto does, and decodes it into a fresh Response
// whose values are copies: nothing aliases buf once it returns.
func ReadResponse(r io.Reader, buf []byte, lim Limits) (*Response, []byte, error) {
	lim = lim.withDefaults()
	buf, err := readFrame(r, buf, lim)
	if err != nil {
		return nil, buf, err
	}
	resp, _, err := DecodeResponse(buf, lim)
	return resp, buf, err
}

// readFrame reads one whole frame (header + payload) into buf. The payload
// length is validated before the payload read, so a hostile header cannot
// force an over-allocation.
func readFrame(r io.Reader, buf []byte, lim Limits) ([]byte, error) {
	if cap(buf) < HeaderLen {
		// First call only: the caller reuses the returned buffer for every
		// later frame.
		buf = make([]byte, HeaderLen, 4096)
	}
	buf = buf[:HeaderLen]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.ErrUnexpectedEOF {
			return buf, frameErrf("truncated header")
		}
		return buf, err
	}
	_, _, n, err := parseHeader(buf, lim.MaxPayload)
	if err != nil {
		return buf, err
	}
	total := HeaderLen + n
	if cap(buf) < total {
		// Grows to the largest frame seen, then allocates nothing in steady
		// state.
		nb := make([]byte, total)
		copy(nb, buf[:HeaderLen])
		buf = nb
	}
	buf = buf[:total]
	if _, err := io.ReadFull(r, buf[HeaderLen:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return buf, frameErrf("truncated payload")
		}
		return buf, err
	}
	return buf, nil
}
