package wire

import (
	"encoding/binary"
	"fmt"
)

// AppendRequest appends req's frame to buf and returns the extended slice.
// It refuses every operand the decoder would refuse (sizes against lim, a
// TTL past 2^62 ns), so a bad request fails at the sender instead of
// desynchronizing the stream at the receiver.
func AppendRequest(buf []byte, req *Request, lim Limits) ([]byte, error) {
	if !req.Op.Valid() {
		return buf, fmt.Errorf("wire: cannot encode opcode %v", req.Op)
	}
	lim = lim.withDefaults()
	start := len(buf)
	// Reserve the header; the payload length is patched in afterwards.
	var hdr [HeaderLen]byte
	buf = append(buf, hdr[:]...)

	// The Trace field drives the wire bit: a non-nil Trace sets FlagTrace
	// and emits the prefix; a FlagTrace bit without the extension would
	// desynchronize the stream, so it is rejected here at the sender.
	flags := req.Flags
	if req.Trace != nil {
		flags |= FlagTrace
		buf = binary.BigEndian.AppendUint64(buf, req.Trace.ID)
		buf = binary.BigEndian.AppendUint64(buf, req.Trace.SendMicros)
	} else if flags&FlagTrace != 0 {
		return buf[:start], fmt.Errorf("wire: FlagTrace set without a trace extension")
	}

	// The Namespace field drives the tenant bit the same way Trace drives
	// FlagTrace: a non-empty namespace sets the flag and emits the prefix; a
	// bare flag would desynchronize the stream and is rejected at the sender.
	if req.Namespace != "" {
		if len(req.Namespace) > MaxNamespaceLen {
			return buf[:start], fmt.Errorf("wire: namespace of %d bytes exceeds %d", len(req.Namespace), MaxNamespaceLen)
		}
		flags |= FlagTenant
		buf = append(buf, byte(len(req.Namespace)))
		buf = append(buf, req.Namespace...)
	} else if flags&FlagTenant != 0 {
		return buf[:start], fmt.Errorf("wire: FlagTenant set without a namespace")
	}

	b, ok := reqBody(req.Op, flags)
	if !ok {
		return buf[:start], fmt.Errorf("wire: FlagNegative without FlagFill")
	}
	buf, err := appendReqBody(buf, b, req, lim)
	if err != nil {
		return buf[:start], err
	}
	return finishFrame(buf, start, req.Op, flags, req.ID, lim)
}

// AppendResponse appends resp's frame to buf and returns the extended slice.
// Like AppendRequest it refuses everything the decoder would refuse.
func AppendResponse(buf []byte, resp *Response, lim Limits) ([]byte, error) {
	if !resp.Op.Valid() {
		return buf, fmt.Errorf("wire: cannot encode response opcode %v", resp.Op)
	}
	if !resp.Status.Valid() {
		return buf, fmt.Errorf("wire: cannot encode status %v", resp.Status)
	}
	lim = lim.withDefaults()
	start := len(buf)
	var hdr [HeaderLen]byte
	buf = append(buf, hdr[:]...)

	// A traced response carries the echoed-and-extended trace prefix ahead
	// of the opcode payload (even for StatusErr: a failing traced request
	// still yields a latency sample). The flags ride the status byte's high
	// bits, which no valid status reaches.
	st := uint8(resp.Status)
	if resp.Trace != nil {
		st |= respFlagTrace
		buf = binary.BigEndian.AppendUint64(buf, resp.Trace.ID)
		buf = binary.BigEndian.AppendUint64(buf, resp.Trace.SendMicros)
		buf = binary.BigEndian.AppendUint32(buf, resp.Trace.QueueMicros)
		buf = binary.BigEndian.AppendUint32(buf, resp.Trace.HandleMicros)
	}
	// The piggybacked demand prefix follows the trace extension. It rides
	// any opcode's response, including StatusErr — a failed op still knows
	// the node's demand.
	if resp.Piggyback != nil {
		st |= respFlagDemand
		buf = appendDemand(buf, resp.Piggyback)
	}

	buf, err := appendRespBody(buf, respBody(resp.Op, resp.Status), resp, lim)
	if err != nil {
		return buf[:start], err
	}
	return finishFrame(buf, start, resp.Op, st, resp.ID, lim)
}

// finishFrame checks the payload of the frame that starts at buf[start]
// against lim and fills in its header.
func finishFrame(buf []byte, start int, op Op, fl uint8, id uint32, lim Limits) ([]byte, error) {
	n := len(buf) - start - HeaderLen
	if n > lim.MaxPayload {
		return buf[:start], fmt.Errorf("wire: payload %d exceeds limit %d", n, lim.MaxPayload)
	}
	h := header(op, fl, id, n)
	copy(buf[start:], h[:])
	return buf, nil
}

// appendMembership appends the OpView payload: epoch, member
// table, then per-slot replica assignments. Replica lists use a uint8 count
// — a replication factor past 256 is not a configuration, it is a typo.
func appendMembership(buf []byte, req *Request, lim Limits) ([]byte, error) {
	buf = binary.BigEndian.AppendUint64(buf, req.Epoch)
	buf, err := appendCount(buf, len(req.Members), lim, "member table")
	if err != nil {
		return buf, err
	}
	for _, m := range req.Members {
		if m.State >= memberStateMax {
			return buf, fmt.Errorf("wire: unknown member state %d", uint8(m.State))
		}
		buf = binary.BigEndian.AppendUint32(buf, m.ID)
		buf = append(buf, byte(m.State))
		if buf, err = appendKey(buf, m.Addr); err != nil {
			return buf, err
		}
	}
	if buf, err = appendCount(buf, len(req.Replicas), lim, "replica table"); err != nil {
		return buf, err
	}
	for _, rs := range req.Replicas {
		if len(rs.Replicas) > 255 {
			return buf, fmt.Errorf("wire: %d replicas for one slot exceed 255", len(rs.Replicas))
		}
		buf = binary.BigEndian.AppendUint32(buf, rs.Slot)
		buf = append(buf, byte(len(rs.Replicas)))
		for _, r := range rs.Replicas {
			buf = binary.BigEndian.AppendUint32(buf, r)
		}
	}
	return buf, nil
}

// appendDemand appends the fixed 52-byte demand prefix: the five uint32
// fields in declaration order, then the four uint64 fields.
func appendDemand(buf []byte, d *NodeDemand) []byte {
	buf = binary.BigEndian.AppendUint32(buf, d.NodeID)
	buf = binary.BigEndian.AppendUint32(buf, d.Sets)
	buf = binary.BigEndian.AppendUint32(buf, d.TakerSets)
	buf = binary.BigEndian.AppendUint32(buf, d.GiverSets)
	buf = binary.BigEndian.AppendUint32(buf, d.CoupledSets)
	buf = binary.BigEndian.AppendUint64(buf, d.ScSSum)
	buf = binary.BigEndian.AppendUint64(buf, d.ScSMax)
	buf = binary.BigEndian.AppendUint64(buf, d.Live)
	return binary.BigEndian.AppendUint64(buf, d.Capacity)
}
