package wire

import (
	"encoding/binary"
	"fmt"
)

// AppendRequest appends req's frame to buf and returns the extended slice.
// It refuses every operand the decoder would refuse (sizes against lim, a
// TTL past 2^62 ns, a flag the op does not take), so a bad request fails at
// the sender instead of desynchronizing the stream at the receiver.
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

	b, err := reqBody(req.Op, flags)
	if err != nil {
		return buf[:start], fmt.Errorf("wire: %w", err)
	}
	buf, err = appendReqBody(buf, b, req, lim)
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
	// still yields a latency sample). The flag rides the status byte's high
	// bit, which no valid status reaches.
	st := uint8(resp.Status)
	if resp.Trace != nil {
		st |= respFlagTrace
		buf = binary.BigEndian.AppendUint64(buf, resp.Trace.ID)
		buf = binary.BigEndian.AppendUint64(buf, resp.Trace.SendMicros)
		buf = binary.BigEndian.AppendUint32(buf, resp.Trace.QueueMicros)
		buf = binary.BigEndian.AppendUint32(buf, resp.Trace.HandleMicros)
	}

	b, err := respBody(resp.Op, resp.Status)
	if err != nil {
		return buf[:start], fmt.Errorf("wire: %w", err)
	}
	if buf, err = appendRespBody(buf, b, resp, lim); err != nil {
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

// appendView appends a view: epoch, member table, then per-slot replica
// lists, refusing a shape the decoder refuses (see slotsFit, replicasFit,
// memberFits). Replica lists use a uint8 count — a replication factor
// past 255 is not a configuration, it is a typo.
func appendView(buf []byte, v *View, lim Limits) ([]byte, error) {
	buf = binary.BigEndian.AppendUint64(buf, v.Epoch)
	buf, err := appendCount(buf, len(v.Members), lim, "member table")
	if err != nil {
		return buf, err
	}
	for _, m := range v.Members {
		if m.State >= memberStateMax {
			return buf, fmt.Errorf("wire: unknown member state %d", uint8(m.State))
		}
		if buf, err = appendKey(append(buf, byte(m.State)), m.Addr); err != nil {
			return buf, err
		}
	}
	if !slotsFit(len(v.Replicas), v.Epoch, len(v.Members)) {
		return buf, fmt.Errorf("wire: view %d has no slots", v.Epoch)
	}
	if buf, err = appendCount(buf, len(v.Replicas), lim, "replica table"); err != nil {
		return buf, err
	}
	for s, set := range v.Replicas {
		if !replicasFit(len(set)) {
			return buf, fmt.Errorf("wire: slot %d lists %d replicas, not 1 to 255", s, len(set))
		}
		buf = append(buf, byte(len(set)))
		for _, r := range set {
			if !memberFits(uint64(r), len(v.Members)) {
				return buf, fmt.Errorf("wire: slot %d names node %d of %d members", s, r, len(v.Members))
			}
			buf = binary.BigEndian.AppendUint32(buf, uint32(r))
		}
	}
	return buf, nil
}
