package wire

import "fmt"

// AppendRequest appends req's frame to buf and returns the extended slice.
// It validates operand sizes against lim so an oversized request fails at
// the sender instead of desynchronizing the stream at the receiver.
func AppendRequest(buf []byte, req *Request, lim Limits) ([]byte, error) {
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
		buf = appendU64(buf, req.Trace.ID)
		buf = appendU64(buf, req.Trace.SendMicros)
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

	var err error
	switch req.Op {
	case OpPing, OpStats:
		// Empty payload.
	case OpGet, OpDel:
		if err = checkKey(req.Key); err == nil {
			buf = appendKey(buf, req.Key)
		}
	case OpLoad:
		switch {
		case flags&FlagFill == 0:
			// Plain read-through lookup: just the key. FlagNegative only
			// modifies a fill.
			if flags&FlagNegative != 0 {
				err = fmt.Errorf("wire: FlagNegative without FlagFill")
				break
			}
			if err = checkKey(req.Key); err == nil {
				buf = appendKey(buf, req.Key)
			}
		case flags&FlagNegative != 0:
			// Negative fill: the origin reported the key absent, so no
			// value travels.
			buf = appendU64(buf, req.Token)
			if err = checkKey(req.Key); err == nil {
				buf = appendKey(buf, req.Key)
			}
		default:
			buf = appendU64(buf, req.Token)
			buf, err = appendKV(buf, req.Key, req.Value, lim)
		}
	case OpSet:
		buf, err = appendKV(buf, req.Key, req.Value, lim)
	case OpSetTTL:
		var ttl uint64
		if req.TTL > 0 {
			ttl = uint64(req.TTL)
		}
		buf = appendU64(buf, ttl)
		buf, err = appendKV(buf, req.Key, req.Value, lim)
	case OpMGet:
		if len(req.Keys) > lim.MaxBatch {
			err = fmt.Errorf("wire: MGET batch of %d exceeds %d", len(req.Keys), lim.MaxBatch)
			break
		}
		buf = appendU16(buf, uint16(len(req.Keys)))
		for _, k := range req.Keys {
			if err = checkKey(k); err != nil {
				break
			}
			buf = appendKey(buf, k)
		}
	case OpMSet:
		if len(req.Pairs) > lim.MaxBatch {
			err = fmt.Errorf("wire: MSET batch of %d exceeds %d", len(req.Pairs), lim.MaxBatch)
			break
		}
		buf = appendU16(buf, uint16(len(req.Pairs)))
		for _, kv := range req.Pairs {
			if buf, err = appendKV(buf, kv.Key, kv.Value, lim); err != nil {
				break
			}
		}
	case OpView:
		buf, err = appendMembership(buf, req, lim)
	case OpReplicate:
		if flags&FlagNegative != 0 {
			// Replicated delete: no TTL, no value.
			if err = checkKey(req.Key); err == nil {
				buf = appendKey(buf, req.Key)
			}
			break
		}
		var ttl uint64
		if req.TTL > 0 {
			ttl = uint64(req.TTL)
		}
		buf = appendU64(buf, ttl)
		buf, err = appendKV(buf, req.Key, req.Value, lim)
	default:
		err = fmt.Errorf("wire: cannot encode opcode %v", req.Op)
	}
	if err != nil {
		return buf[:start], err
	}

	n := len(buf) - start - HeaderLen
	if n > lim.MaxPayload {
		return buf[:start], fmt.Errorf("wire: request payload %d exceeds limit %d", n, lim.MaxPayload)
	}
	h := header(req.Op, flags, req.ID, n)
	copy(buf[start:], h[:])
	return buf, nil
}

// AppendResponse appends resp's frame to buf and returns the extended slice.
func AppendResponse(buf []byte, resp *Response, lim Limits) ([]byte, error) {
	lim = lim.withDefaults()
	start := len(buf)
	var hdr [HeaderLen]byte
	buf = append(buf, hdr[:]...)

	// A traced response carries the echoed-and-extended trace prefix ahead
	// of the opcode payload (even for StatusErr: a failing traced request
	// still yields a latency sample). The flags ride the status byte's high
	// bits, so the status itself must stay below them.
	st := uint8(resp.Status)
	if st&(respFlagTrace|respFlagDemand) != 0 {
		return buf[:start], fmt.Errorf("wire: status %d collides with the response trace/demand bits", st)
	}
	if resp.Trace != nil {
		st |= respFlagTrace
		buf = appendU64(buf, resp.Trace.ID)
		buf = appendU64(buf, resp.Trace.SendMicros)
		buf = appendU32(buf, resp.Trace.QueueMicros)
		buf = appendU32(buf, resp.Trace.HandleMicros)
	}
	// The piggybacked demand prefix follows the trace extension. It rides
	// any opcode's response, including StatusErr — a failed op still knows
	// the node's demand.
	if resp.Piggyback != nil {
		st |= respFlagDemand
		buf = appendDemand(buf, resp.Piggyback)
	}

	var err error
	switch {
	case resp.Status == StatusErr:
		// The message travels as a bare value regardless of opcode.
		buf = appendValue(buf, resp.Value)
	case resp.Op == OpPing || resp.Op == OpDel || resp.Op == OpMSet ||
		resp.Op == OpView || resp.Op == OpReplicate:
		// Empty payload; the status carries the whole answer.
	case resp.Op == OpGet || resp.Op == OpSet || resp.Op == OpSetTTL || resp.Op == OpStats:
		// A value travels only on the statuses that define one.
		if resp.Status == StatusOK || resp.Status == StatusNotStored {
			if len(resp.Value) > lim.MaxValueLen {
				err = fmt.Errorf("wire: value of %d bytes exceeds %d", len(resp.Value), lim.MaxValueLen)
				break
			}
			buf = appendValue(buf, resp.Value)
		}
	case resp.Op == OpLoad:
		// The payload varies by status: OK carries the value (empty for a
		// fill acknowledgement), STALE carries the refresh token (0 = held
		// elsewhere) and the stale value, LEASE carries the fetch token.
		// NOT_FOUND (cached negative) and NOT_STORED (fill token mismatch)
		// are status-only.
		switch resp.Status {
		case StatusOK, StatusStale:
			if resp.Status == StatusStale {
				buf = appendU64(buf, resp.Token)
			}
			if len(resp.Value) > lim.MaxValueLen {
				err = fmt.Errorf("wire: value of %d bytes exceeds %d", len(resp.Value), lim.MaxValueLen)
				break
			}
			buf = appendValue(buf, resp.Value)
		case StatusLease:
			buf = appendU64(buf, resp.Token)
		}
	case resp.Op == OpMGet:
		if len(resp.Values) != len(resp.Found) {
			err = fmt.Errorf("wire: MGET response with %d values but %d found flags", len(resp.Values), len(resp.Found))
			break
		}
		if len(resp.Values) > lim.MaxBatch {
			err = fmt.Errorf("wire: MGET response batch of %d exceeds %d", len(resp.Values), lim.MaxBatch)
			break
		}
		buf = appendU16(buf, uint16(len(resp.Values)))
		for i, v := range resp.Values {
			if !resp.Found[i] {
				buf = append(buf, 0)
				continue
			}
			if len(v) > lim.MaxValueLen {
				err = fmt.Errorf("wire: value of %d bytes exceeds %d", len(v), lim.MaxValueLen)
				break
			}
			buf = append(buf, 1)
			buf = appendValue(buf, v)
		}
	default:
		err = fmt.Errorf("wire: cannot encode response opcode %v", resp.Op)
	}
	if err != nil {
		return buf[:start], err
	}

	n := len(buf) - start - HeaderLen
	if n > lim.MaxPayload {
		return buf[:start], fmt.Errorf("wire: response payload %d exceeds limit %d", n, lim.MaxPayload)
	}
	h := header(resp.Op, st, resp.ID, n)
	copy(buf[start:], h[:])
	return buf, nil
}

// appendMembership appends the OpView payload: epoch, member
// table, then per-slot replica assignments. Replica lists use a uint8 count
// — a replication factor past 256 is not a configuration, it is a typo.
func appendMembership(buf []byte, req *Request, lim Limits) ([]byte, error) {
	if len(req.Members) > lim.MaxBatch {
		return buf, fmt.Errorf("wire: member table of %d exceeds %d", len(req.Members), lim.MaxBatch)
	}
	if len(req.Replicas) > lim.MaxBatch {
		return buf, fmt.Errorf("wire: replica table of %d exceeds %d", len(req.Replicas), lim.MaxBatch)
	}
	buf = appendU64(buf, req.Epoch)
	buf = appendU16(buf, uint16(len(req.Members)))
	for _, m := range req.Members {
		if m.State >= memberStateMax {
			return buf, fmt.Errorf("wire: unknown member state %d", uint8(m.State))
		}
		if err := checkKey(m.Addr); err != nil {
			return buf, err
		}
		buf = appendU32(buf, m.ID)
		buf = append(buf, byte(m.State))
		buf = appendKey(buf, m.Addr)
	}
	buf = appendU16(buf, uint16(len(req.Replicas)))
	for _, rs := range req.Replicas {
		if len(rs.Replicas) > 255 {
			return buf, fmt.Errorf("wire: %d replicas for one slot exceed 255", len(rs.Replicas))
		}
		buf = appendU32(buf, rs.Slot)
		buf = append(buf, byte(len(rs.Replicas)))
		for _, r := range rs.Replicas {
			buf = appendU32(buf, r)
		}
	}
	return buf, nil
}

func appendKV(buf []byte, k string, v []byte, lim Limits) ([]byte, error) {
	if err := checkKey(k); err != nil {
		return buf, err
	}
	if len(v) > lim.MaxValueLen {
		return buf, fmt.Errorf("wire: value of %d bytes exceeds %d", len(v), lim.MaxValueLen)
	}
	buf = appendKey(buf, k)
	buf = appendValue(buf, v)
	return buf, nil
}

// appendDemand appends the fixed 52-byte demand prefix: the five uint32
// fields in declaration order, then the four uint64 fields.
func appendDemand(buf []byte, d *NodeDemand) []byte {
	buf = appendU32(buf, d.NodeID)
	buf = appendU32(buf, d.Sets)
	buf = appendU32(buf, d.TakerSets)
	buf = appendU32(buf, d.GiverSets)
	buf = appendU32(buf, d.CoupledSets)
	buf = appendU64(buf, d.ScSSum)
	buf = appendU64(buf, d.ScSMax)
	buf = appendU64(buf, d.Live)
	return appendU64(buf, d.Capacity)
}

func appendU16(buf []byte, v uint16) []byte {
	return append(buf, byte(v>>8), byte(v))
}

func appendU32(buf []byte, v uint32) []byte {
	return append(buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendU64(buf []byte, v uint64) []byte {
	return append(buf,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
