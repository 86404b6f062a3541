package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// fuzzLimits are the limits FuzzWireDecode and the malformed-frame table
// decode under: small enough that the batch limit is reachable.
var fuzzLimits = Limits{MaxValueLen: 1 << 16, MaxBatch: 64}.withDefaults()

// decoders names the frame decoders that must refuse a malformed frame.
type decoders uint8

const (
	reqDecoder decoders = 1 << iota
	respDecoder
	bothDecoders = reqDecoder | respDecoder
)

// frame assembles a header and a payload whose length the header states.
func frame(op Op, fl uint8, payload ...byte) []byte {
	h := header(op, fl, 7, len(payload))
	return append(h[:], payload...)
}

// zeros returns n zero bytes.
func zeros(n int) []byte { return make([]byte, n) }

// cat joins byte slices.
func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// malformedFrames are hand-built frames that the named decoders must refuse
// under fuzzLimits, each for the reason given (a substring of the error).
// The other decoder's verdict on a row is not part of the row.
func malformedFrames() []struct {
	name   string
	frame  []byte
	by     decoders
	reason string
} {
	big := header(OpPing, 0, 7, 1<<30)
	// emptyView is epoch 0 and two empty tables.
	emptyView := zeros(8 + 2 + 2)
	v4Ping := header(OpPing, 0, 7, 0)
	v4Ping[1] = 4
	v5Ping := header(OpPing, 0, 7, 0)
	v5Ping[1] = 5
	v6Ping := header(OpPing, 0, 7, 0)
	v6Ping[1] = 6
	// oneMember is epoch 1 and a member table of one alive member, "h:1".
	oneMember := cat(zeros(7), []byte{1, 0, 1, 0, 0, 3, 'h', ':', '1'})
	return []struct {
		name   string
		frame  []byte
		by     decoders
		reason string
	}{
		{"empty", []byte{}, bothDecoders, "short header"},
		{"lone magic", []byte{Magic}, bothDecoders, "short header"},
		{"all-zero header", zeros(HeaderLen), bothDecoders, "bad magic 0x00"},
		{"saturated header and junk", bytes.Repeat([]byte{0xFF}, 64), bothDecoders, "bad magic 0xff"},
		{"payload length beyond every limit", big[:], bothDecoders, "payload length 1073741824 exceeds limit"},
		{"MGET count past the batch limit", frame(OpMGet, 0, 0xFF, 0xFF), reqDecoder, "batch of 65535 entries exceeds limit 64"},
		{"key length past the end", frame(OpGet, 0, 0xFF, 0xFF), reqDecoder, "need 65535 bytes, have 0"},
		{"value length 4 GiB", frame(OpSet, 0, 0, 1, 'k', 0xFF, 0xFF, 0xFF, 0xFF, 0, 0), reqDecoder, "value length 4294967295 exceeds limit 65536"},

		// Flags and statuses: a bit no op takes, bits other ops take, and
		// statuses past StatusMoved.
		{"GET with flag bit 7", frame(OpGet, 1<<7, 0, 1, 'k'), reqDecoder, "flags 0x80 are not defined for GET"},
		{"GET with FlagNX and FlagNegative", frame(OpGet, FlagNX|FlagNegative, 0, 1, 'k'), reqDecoder, "flags 0x09 are not defined for GET"},
		{"status 4", frame(OpGet, 4, 0, 0, 0, 0), respDecoder, "unknown status 4"},
		{"status 5", frame(OpGet, 5, 0, 0, 0, 0), respDecoder, "unknown status 5"},

		// The retired store-if-absent flag: only REPLICATE takes FlagNX.
		{"SET with FlagNX", frame(OpSet, FlagNX, 0, 1, 'k', 0, 0, 0, 1, 'v'), reqDecoder, "flags 0x01 are not defined for SET"},
		{"SETTTL with FlagNX", frame(OpSetTTL, FlagNX, cat(zeros(8), []byte{0, 1, 'k', 0, 0, 0, 1, 'v'})...), reqDecoder, "flags 0x01 are not defined for SETTTL"},

		// Trace extension: the flag promising a prefix the payload cannot
		// hold, the flag clear with prefix-sized bytes, and the response
		// trace bit over a short or misread extension.
		{"FlagTrace, half an extension", frame(OpPing, FlagTrace, 1, 2, 3, 4, 5, 6, 7, 8), reqDecoder, "truncated trace extension: want 16 bytes, have 8"},
		{"FlagTrace, no extension", frame(OpPing, FlagTrace), reqDecoder, "truncated trace extension: want 16 bytes, have 0"},
		{"flag clear, trace-sized junk", frame(OpPing, 0, zeros(traceReqLen)...), reqDecoder, "16 trailing payload bytes"},
		{"traced response, one byte short", frame(OpPing, uint8(StatusOK)|respFlagTrace, zeros(traceRespLen-1)...), respDecoder, "truncated trace extension: want 24 bytes, have 23"},
		{"traced GET response, a byte after its empty value", frame(OpGet, uint8(StatusOK)|respFlagTrace, zeros(traceRespLen+5)...), respDecoder, "1 trailing payload bytes"},

		// VIEW: a member count the bytes cannot hold, an unknown member
		// state, a replica count with no bytes behind it, and a member count
		// past the batch limit.
		{"VIEW member count past the bytes", frame(OpView, 0, cat(zeros(8), []byte{0, 1, 0, 0})...), reqDecoder, "batch count 1 exceeds payload capacity"},
		{"VIEW member state 9", frame(OpView, 0, cat(zeros(8), []byte{0, 1, 9, 0, 0})...), reqDecoder, "unknown member state 9"},
		{"VIEW 255 replicas, no bytes", frame(OpView, 0, cat(zeros(8), []byte{0, 0, 0, 1, 0xFF})...), reqDecoder, "replica count 255 exceeds payload capacity"},
		{"VIEW member count 65535", frame(OpView, 0, cat(zeros(8), []byte{0xFF, 0xFF})...), reqDecoder, "batch of 65535 entries exceeds limit 64"},

		// VIEW shapes no holder can route by, as a push and as an answer
		// alike: a replica that is not a member, a slot with no replicas,
		// and members but no slots (a holder hashes keys modulo the slot
		// count).
		{"VIEW replica past the members", frame(OpView, 0, cat(oneMember, []byte{0, 1, 1, 0, 0, 0, 1})...), bothDecoders, "slot 0 names node 1 of 1 members"},
		{"VIEW slot with no replicas", frame(OpView, 0, cat(oneMember, []byte{0, 2, 1, 0, 0, 0, 0, 0})...), bothDecoders, "slot 1 lists no replicas"},
		{"VIEW members but no slots", frame(OpView, 0, cat(oneMember, []byte{0, 0})...), bothDecoders, "view 1 has no slots"},

		// MOVED: an answer to an op no view routes (its bytes a well-formed
		// view all the same), and a view cut short.
		{"MOVED answering PING", frame(OpPing, uint8(StatusMoved), emptyView...), respDecoder, "status MOVED is not defined for PING"},
		{"MOVED answering STATS", frame(OpStats, uint8(StatusMoved), emptyView...), respDecoder, "status MOVED is not defined for STATS"},
		{"MOVED answering VIEW", frame(OpView, uint8(StatusMoved), emptyView...), respDecoder, "status MOVED is not defined for VIEW"},
		{"MOVED answering REPLICATE", frame(OpReplicate, uint8(StatusMoved), emptyView...), respDecoder, "status MOVED is not defined for REPLICATE"},
		{"MOVED view cut inside its epoch", frame(OpGet, uint8(StatusMoved), zeros(4)...), respDecoder, "truncated payload: need 8 bytes, have 4"},
		{"MOVED view cut inside its replica table", frame(OpMGet, uint8(StatusMoved), cat(zeros(8), []byte{0, 0, 0, 1, 1, 0, 0})...), respDecoder, "replica count 1 exceeds payload capacity"},
		{"a v4 frame", v4Ping[:], bothDecoders, "unsupported version 4"},
		{"a v5 frame", v5Ping[:], bothDecoders, "unsupported version 5"},
		{"a v6 frame", v6Ping[:], bothDecoders, "unsupported version 6 (want 7)"},

		// REPLICATE: a replicated delete with value bytes, and a TTL past 2^62.
		{"negative REPLICATE with a value", frame(OpReplicate, FlagNegative, 0, 1, 'k', 0, 0, 0, 0), reqDecoder, "4 trailing payload bytes"},
		{"REPLICATE TTL past 2^62", frame(OpReplicate, 0, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0, 1, 'k', 0, 0, 0, 0), reqDecoder, "TTL 18374686479671623680 overflows a duration"},

		// The retired demand bits: request flag bit 5, and status bit 6 over
		// the 52-byte prefix a version-3 node sent with it.
		{"PING with flag bit 5", frame(OpPing, 1<<5), reqDecoder, "flags 0x20 are not defined for PING"},
		{"status bit 6 over 52 bytes", frame(OpPing, uint8(StatusOK)|1<<6, zeros(52)...), respDecoder, "unknown status 64"},
	}
}

// retiredDemandFrames are the frames version 3 sent for node demand, as
// its golden file held them: three requests with flag bit 5 (PING, GET,
// traced PING) and five responses with status bit 6 and the 52-byte
// demand prefix (OK, ERR, on GET, NOT_FOUND, traced).
var retiredDemandFrames = []string{
	"530301200000000c00000000",
	"5303022000000021000000070005616c706861",
	"53030122000000220000001000000000000000080000000000000009",
	"530301400000000c000000340000000200000200000000600000012c000000400000000000002328000000000000fe000000000000000fa00000000000001000",
	"530301430000000d000000400000000400000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000008647261696e696e67",
	"530302400000001d00000039000000010000004000000008000000000000000000000000000000000000000000000000000000000000006400000000000001000000000176",
	"530302410000001e0000003400000002000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
	"530301c00000001f0000004c0000000000000006000000000000000700000008000000090000000300000000000000000000000000000000000000000000000c000000000000004000000000000000000000000000000000",
}

// retiredNXFrames are the store-if-absent frames version 5 sent, as its
// golden file held them: a SET with FlagNX, a traced one, and the answer
// that refused such a store (status 2, the resident value "old").
var retiredNXFrames = []string{
	"53050301000000060000000700016b00000000",
	"530503030000000e000000180000000000000001000000000000000200016b0000000176",
	"530503020000000500000007000000036f6c64",
}

// retiredV6ViewFrames are the view-carrying frames version 6 sent, as its
// golden file held them, where a member row led with its node id and a
// replica row with its slot, both the row's own index: two VIEW pushes, a
// VIEW answer, a GET answered MOVED and a traced MSET answered MOVED.
var retiredV6ViewFrames = []string{
	"530609000000001a0000004f000000000000000700030000000000000e3132372e302e302e313a34303030000000010100000000000202000e3132372e302e302e313a343030320002000000000200000001000000020000003f00",
	"530609000000001b0000001f0000010000000000000100000009020003683a310001000000050100000000",
	"530609000000001a0000004f000000000000000700030000000000000e3132372e302e302e313a34303030000000010100000000000202000e3132372e302e302e313a343030320002000000000200000001000000020000003f00",
	"530602030000001e0000004f000000000000000700030000000000000e3132372e302e302e313a34303030000000010100000000000202000e3132372e302e302e313a343030320002000000000200000001000000020000003f00",
	"530607830000001f000000370000000000000003000000000000000400000005000000060000000000000002000100000000000003683a300001000000000100000000",
}

// TestDecodeRejectsMalformed checks every malformed frame is refused by the
// decoders its row names, with ErrFrame and the row's reason.
func TestDecodeRejectsMalformed(t *testing.T) {
	for _, m := range malformedFrames() {
		t.Run(m.name, func(t *testing.T) {
			check := func(d decoders, kind string, decode func() error) {
				if m.by&d == 0 {
					return
				}
				if err := decode(); !errors.Is(err, ErrFrame) || !strings.Contains(err.Error(), m.reason) {
					t.Errorf("%s decoder: %v, want ErrFrame naming %q", kind, err, m.reason)
				}
			}
			check(reqDecoder, "request", func() error { _, _, err := DecodeRequest(m.frame, fuzzLimits); return err })
			check(respDecoder, "response", func() error { _, _, err := DecodeResponse(m.frame, fuzzLimits); return err })
		})
	}
}

// FuzzWireDecode feeds arbitrary bytes to both frame decoders. The contract
// under test: decoding never panics, never over-allocates (enforced
// indirectly — a count- or length-driven allocation only happens after the
// bytes backing it were validated present), and anything that decodes
// re-encodes to a frame that decodes to the same thing.
func FuzzWireDecode(f *testing.F) {
	lim := fuzzLimits

	// Seed corpus: every fixture frame, every boundary frame, then the
	// malformed frames.
	for _, b := range fixtureFrames(f, lim) {
		f.Add(b)
	}
	for _, bf := range boundaryFrames(f) {
		f.Add(bf.data)
	}
	for _, m := range malformedFrames() {
		f.Add(m.frame)
	}
	// The retired demand frames at the current version: both decoders
	// refuse each one, and the fuzzer mutates from there.
	for _, h := range retiredDemandFrames {
		b, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		b[1] = Version
		if _, _, err := DecodeRequest(b, lim); err == nil {
			f.Fatalf("request decoder accepted retired frame %s", h)
		}
		if _, _, err := DecodeResponse(b, lim); err == nil {
			f.Fatalf("response decoder accepted retired frame %s", h)
		}
		f.Add(b)
	}
	// The retired store-if-absent frames at the current version: both
	// decoders refuse the requests, and the refusal's status byte now names
	// ERR, so the response decoder reads that answer as an error, never as
	// a store that did not happen.
	for _, h := range retiredNXFrames {
		b, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		b[1] = Version
		if _, _, err := DecodeRequest(b, lim); err == nil {
			f.Fatalf("request decoder accepted retired frame %s", h)
		}
		if resp, _, err := DecodeResponse(b, lim); err == nil && resp.Status != StatusErr {
			f.Fatalf("response decoder read retired frame %s as %v", h, resp.Status)
		}
		f.Add(b)
	}

	// The retired v6 view frames, as sent and at the current version: both
	// decoders refuse each one, so an old view cannot misparse as a new one.
	for _, h := range retiredV6ViewFrames {
		b, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		for _, v := range []byte{b[1], Version} {
			b := append([]byte(nil), b...)
			b[1] = v
			if _, _, err := DecodeRequest(b, lim); err == nil {
				f.Fatalf("request decoder accepted retired frame %s at version %d", h, v)
			}
			if _, _, err := DecodeResponse(b, lim); err == nil {
				f.Fatalf("response decoder accepted retired frame %s at version %d", h, v)
			}
			f.Add(b)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		req, n, err := DecodeRequest(data, lim)
		if err == nil {
			checkConsumed(t, n, data)
			reb, err := AppendRequest(nil, req, lim)
			if err != nil {
				t.Fatalf("decoded request does not re-encode: %v", err)
			}
			req2, _, err := DecodeRequest(reb, lim)
			if err != nil {
				t.Fatalf("re-encoded request does not decode: %v", err)
			}
			if req2.Op != req.Op || req2.ID != req.ID || req2.Flags != req.Flags ||
				req2.Key != req.Key || req2.Epoch != req.Epoch ||
				len(req2.Keys) != len(req.Keys) || len(req2.Pairs) != len(req.Pairs) ||
				len(req2.Members) != len(req.Members) || len(req2.Replicas) != len(req.Replicas) {
				t.Fatalf("request round trip drifted: %+v vs %+v", req, req2)
			}
			if (req.Trace == nil) != (req2.Trace == nil) ||
				(req.Trace != nil && *req2.Trace != *req.Trace) {
				t.Fatalf("request trace drifted: %+v vs %+v", req.Trace, req2.Trace)
			}
			if (req.Trace != nil) != (req.Flags&FlagTrace != 0) {
				t.Fatalf("trace/flag desync: flags %x trace %+v", req.Flags, req.Trace)
			}
		} else if !errors.Is(err, ErrFrame) {
			t.Fatalf("request decode error %v does not wrap ErrFrame", err)
		}

		resp, n, err := DecodeResponse(data, lim)
		if err == nil {
			checkConsumed(t, n, data)
			reb, err := AppendResponse(nil, resp, lim)
			if err != nil {
				t.Fatalf("decoded response does not re-encode: %v", err)
			}
			resp2, _, err := DecodeResponse(reb, lim)
			if err != nil {
				t.Fatalf("re-encoded response does not decode: %v", err)
			}
			if resp2.Op != resp.Op || resp2.ID != resp.ID || resp2.Status != resp.Status ||
				len(resp2.Values) != len(resp.Values) {
				t.Fatalf("response round trip drifted: %+v vs %+v", resp, resp2)
			}
			if (resp.Trace == nil) != (resp2.Trace == nil) ||
				(resp.Trace != nil && *resp2.Trace != *resp.Trace) {
				t.Fatalf("response trace drifted: %+v vs %+v", resp.Trace, resp2.Trace)
			}
		} else if !errors.Is(err, ErrFrame) {
			t.Fatalf("response decode error %v does not wrap ErrFrame", err)
		}

		// The zero-copy Into decoders must agree with the copying decoders
		// on every input: same verdict, same consumed count, same frame.
		var reqInto Request
		if cReq, cN, cErr := DecodeRequest(data, lim); cErr == nil {
			n2, err2 := DecodeRequestInto(&reqInto, data, lim)
			if err2 != nil || n2 != cN {
				t.Fatalf("into request decode diverged: n=%d err=%v, copying n=%d", n2, err2, cN)
			}
			if !reflect.DeepEqual(*cReq, reqInto) {
				t.Fatalf("into request decode drifted: %+v vs %+v", *cReq, reqInto)
			}
		} else if _, err2 := DecodeRequestInto(&reqInto, data, lim); err2 == nil {
			t.Fatalf("into request decode accepted what copying decode rejected: %v", cErr)
		}
		var respInto Response
		if cResp, cN, cErr := DecodeResponse(data, lim); cErr == nil {
			n2, err2 := DecodeResponseInto(&respInto, data, lim)
			if err2 != nil || n2 != cN {
				t.Fatalf("into response decode diverged: n=%d err=%v, copying n=%d", n2, err2, cN)
			}
			if !reflect.DeepEqual(*cResp, respInto) {
				t.Fatalf("into response decode drifted: %+v vs %+v", *cResp, respInto)
			}
		} else if _, err2 := DecodeResponseInto(&respInto, data, lim); err2 == nil {
			t.Fatalf("into response decode accepted what copying decode rejected: %v", cErr)
		}

		// The stream reader must agree with the bytes decoder and must map a
		// mid-frame end of input onto a frame error, not a panic or io.EOF.
		if _, err := ReadRequestInto(&Request{}, bytes.NewReader(data), nil, lim); err == nil {
			if len(data) < HeaderLen {
				t.Fatal("ReadRequestInto accepted a short frame")
			}
		} else if err != io.EOF && !errors.Is(err, ErrFrame) {
			t.Fatalf("ReadRequestInto error %v is neither EOF nor ErrFrame", err)
		}
		if _, err := ReadResponseInto(&Response{}, bytes.NewReader(data), nil, lim); err == nil {
			if len(data) < HeaderLen {
				t.Fatal("ReadResponseInto accepted a short frame")
			}
		} else if err != io.EOF && !errors.Is(err, ErrFrame) {
			t.Fatalf("ReadResponseInto error %v is neither EOF nor ErrFrame", err)
		}
	})
}

// checkConsumed asserts the decoder consumed header+payload exactly.
func checkConsumed(t *testing.T, n int, data []byte) {
	t.Helper()
	if n < HeaderLen || n > len(data) {
		t.Fatalf("consumed %d of %d bytes", n, len(data))
	}
	want := HeaderLen + int(binary.BigEndian.Uint32(data[8:12]))
	if n != want {
		t.Fatalf("consumed %d, header promises %d", n, want)
	}
}
