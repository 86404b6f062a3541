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
// operands of GET, DEL and MGET (their keys) alias data, valid only
// until the buffer is reused; every other op's operands are copied, because
// its receiver keeps them (see opDesc.alias), so a handler may pass them
// straight on. This is the server's per-op read path: with a reused Request
// and buffer, GET and MGET decode with zero allocations.
func DecodeRequestInto(req *Request, data []byte, lim Limits) (int, error) {
	return decodeRequest(req, data, lim, true)
}

// openFrame validates data's header, length and opcode and points c at
// exactly the frame's payload. The cursor aliases data only when into is set
// and the op's row allows it: the one copy-or-alias decision for requests
// (decodeResponse widens it to every op).
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
	b, err := reqBody(op, fl)
	if err != nil {
		return 0, frameErrf("%v", err)
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
	if err := c.reqBody(b, req, lim); err != nil {
		return 0, err
	}
	if err := c.done(); err != nil {
		return 0, err
	}
	return HeaderLen + len(c.b), nil
}

// view reads a view: epoch, member table, replica table, refusing a shape
// no holder can route by (see slotsFit, replicasFit, memberFits): the
// decoder is where a view from the network is checked. Its tables are
// allocated whatever the decode, and every holder keeps them, so its
// addresses are copies even under alias: a view never aliases the frame.
func (c *cursor) view(v *View, lim Limits) (err error) {
	c.alias = false
	if v.Epoch, err = c.u64(); err != nil {
		return err
	}
	if v.Members, err = c.members(lim); err != nil {
		return err
	}
	v.Replicas, err = c.replicas(v.Epoch, len(v.Members), lim)
	return err
}

// members reads a view's member table. Each member costs at least
// state + addr-length bytes, so the count is capacity-checked before any
// allocation.
func (c *cursor) members(lim Limits) ([]Member, error) {
	n, err := c.count(lim, 1+2)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	members := make([]Member, 0, n)
	for i := 0; i < n; i++ {
		p, err := c.take(1)
		if err != nil {
			return nil, err
		}
		if p[0] >= uint8(memberStateMax) {
			return nil, frameErrf("unknown member state %d", p[0])
		}
		m := Member{State: MemberState(p[0])}
		if m.Addr, err = c.key(); err != nil {
			return nil, err
		}
		members = append(members, m)
	}
	return members, nil
}

// replicas reads the replica table of a view of epoch e with m members.
// The outer count and each slot's uint8 replica count are capacity-checked
// against the bytes present before their allocations.
func (c *cursor) replicas(e uint64, m int, lim Limits) ([][]int, error) {
	n, err := c.count(lim, 1)
	if err != nil {
		return nil, err
	}
	if !slotsFit(n, e, m) {
		return nil, frameErrf("view %d has no slots", e)
	}
	if n == 0 {
		return nil, nil
	}
	sets := make([][]int, n)
	for s := range sets {
		p, err := c.take(1)
		if err != nil {
			return nil, err
		}
		nr := int(p[0])
		if !replicasFit(nr) {
			return nil, frameErrf("slot %d lists no replicas", s)
		}
		if nr > c.remaining()/4 {
			return nil, frameErrf("replica count %d exceeds payload capacity", nr)
		}
		set := make([]int, nr)
		for i := range set {
			r, err := c.u32()
			if err != nil {
				return nil, err
			}
			if !memberFits(uint64(r), m) {
				return nil, frameErrf("slot %d names node %d of %d members", s, r, m)
			}
			set[i] = int(r)
		}
		sets[s] = set
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
// Every value aliases data, whatever the op, so a caller that keeps one must
// copy it. With a reused Response and buffer, GET and MGET decode with zero
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
	// The status byte's high bit flags the trace prefix; mask it off before
	// validating the status proper.
	status := Status(st &^ respFlagTrace)
	if !status.Valid() {
		return 0, frameErrf("unknown status %d", uint8(status))
	}
	// Unlike a request's operands, no response value is kept by the layer
	// that decodes it: the client copies what it keeps into its own arena,
	// so every op aliases here, not only the lookups.
	c.alias = into
	resp.Reset()
	resp.Op = op
	resp.ID = binary.BigEndian.Uint32(data[4:8])
	resp.Status = status
	if st&respFlagTrace != 0 {
		if resp.Trace, err = c.traceResp(); err != nil {
			return 0, err
		}
	}
	b, err := respBody(op, status)
	if err != nil {
		return 0, frameErrf("%v", err)
	}
	if err := c.respBody(b, resp, lim); err != nil {
		return 0, err
	}
	if err := c.done(); err != nil {
		return 0, err
	}
	return HeaderLen + len(c.b), nil
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

// ReadResponseInto is ReadRequestInto's twin for responses: it reads
// exactly one response frame from r into a caller-owned Response, buffering
// it through buf. Every value aliases buf (see DecodeResponseInto) until the
// next read reuses it. With a warm buffer and Response it performs zero
// allocations per frame, which is why the client's round trip uses it.
func ReadResponseInto(resp *Response, r io.Reader, buf []byte, lim Limits) ([]byte, error) {
	lim = lim.withDefaults()
	buf, err := readFrame(r, buf, lim)
	if err != nil {
		return buf, err
	}
	_, err = decodeResponse(resp, buf, lim, true)
	return buf, err
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
