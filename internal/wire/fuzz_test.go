package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
)

// FuzzWireDecode feeds arbitrary bytes to both frame decoders. The contract
// under test: decoding never panics, never over-allocates (enforced
// indirectly — a count- or length-driven allocation only happens after the
// bytes backing it were validated present), and anything that decodes
// re-encodes to a frame that decodes to the same thing.
func FuzzWireDecode(f *testing.F) {
	lim := Limits{MaxValueLen: 1 << 16, MaxBatch: 64}.withDefaults()

	// Seed corpus: every fixture frame, then targeted malformations.
	for _, req := range requestFixtures() {
		if b, err := AppendRequest(nil, req, lim); err == nil {
			f.Add(b)
		}
	}
	for _, resp := range responseFixtures() {
		if b, err := AppendResponse(nil, resp, lim); err == nil {
			f.Add(b)
		}
	}
	f.Add([]byte{})                       // empty
	f.Add([]byte{Magic})                  // lone magic
	f.Add(bytes.Repeat([]byte{0}, 12))    // all-zero header
	f.Add(bytes.Repeat([]byte{0xFF}, 64)) // saturated header + junk
	h := header(OpMGet, 0, 7, 2)
	f.Add(append(h[:], 0xFF, 0xFF)) // huge batch count, no entry bytes
	h = header(OpGet, 0, 7, 2)
	f.Add(append(h[:], 0xFF, 0xFF)) // key length pointing past the end
	h = header(OpSet, 0, 7, 9)
	f.Add(append(h[:], 0, 1, 'k', 0xFF, 0xFF, 0xFF, 0xFF, 0, 0)) // value length 4 GiB
	big := header(OpPing, 0, 7, 1<<30)
	f.Add(big[:]) // payload length beyond every limit

	// LOAD malformations: truncated fill token, FlagNegative without
	// FlagFill, truncated lease token on the response, and a STALE response
	// whose token arrives but whose value does not.
	h = header(OpLoad, FlagFill, 7, 4)
	f.Add(append(h[:], 1, 2, 3, 4))
	h = header(OpLoad, FlagNegative, 7, 3)
	f.Add(append(h[:], 0, 1, 'k'))
	h = header(OpLoad, uint8(StatusLease), 7, 4)
	f.Add(append(h[:], 1, 2, 3, 4))
	h = header(OpLoad, uint8(StatusStale), 7, 8)
	f.Add(append(h[:], make([]byte, 8)...))

	// Trace-extension malformations: the flag promising a prefix the
	// payload cannot satisfy, the flag clear with prefix-sized trailing
	// bytes, and the response trace bit over a truncated extension.
	h = header(OpPing, FlagTrace, 7, 8)
	f.Add(append(h[:], 1, 2, 3, 4, 5, 6, 7, 8)) // FlagTrace, half an extension
	h = header(OpPing, FlagTrace, 7, 0)
	f.Add(h[:]) // FlagTrace, no extension bytes at all
	h = header(OpPing, 0, 7, traceReqLen)
	f.Add(append(h[:], make([]byte, traceReqLen)...)) // flag clear, trace-sized junk
	h = header(OpPing, uint8(StatusOK)|respFlagTrace, 7, traceRespLen-1)
	f.Add(append(h[:], make([]byte, traceRespLen-1)...)) // traced response, one byte short
	h = header(OpGet, uint8(StatusOK)|respFlagTrace, 7, traceRespLen+5)
	f.Add(append(h[:], make([]byte, traceRespLen+5)...)) // traced response + value

	// Membership malformations: a truncated member table, an unknown member
	// state, a replica count with no bytes behind it, and a member count
	// past the batch limit.
	h = header(OpView, 0, 7, 12)
	f.Add(append(h[:], 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0)) // count 1, member cut mid-id
	h = header(OpView, 0, 7, 17)
	f.Add(append(h[:], 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 5, 9, 0, 0)) // state byte 9
	h = header(OpView, 0, 7, 17)
	f.Add(append(h[:], 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 3, 0xFF)) // 255 replicas, no bytes
	h = header(OpView, 0, 7, 10)
	f.Add(append(h[:], 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF)) // member count 65535

	// REPLICATE malformations: a negative replicate with trailing value
	// bytes, and a TTL past the duration range.
	h = header(OpReplicate, FlagNegative, 7, 7)
	f.Add(append(h[:], 0, 1, 'k', 0, 0, 0, 0))
	h = header(OpReplicate, 0, 7, 15)
	f.Add(append(h[:], 0xFF, 0, 0, 0, 0, 0, 0, 0, 0, 1, 'k', 0, 0, 0, 0)) // TTL 2^63+

	// Piggybacked-demand malformations: the demand bit over a truncated
	// prefix, and stacked trace + demand prefixes cut mid-demand.
	h = header(OpGet, uint8(StatusOK)|respFlagDemand, 7, nodeDemandLen-1)
	f.Add(append(h[:], make([]byte, nodeDemandLen-1)...))
	h = header(OpPing, uint8(StatusOK)|respFlagTrace|respFlagDemand, 7, traceRespLen+8)
	f.Add(append(h[:], make([]byte, traceRespLen+8)...))

	// Namespace-prefix malformations: the flag promising a name the payload
	// cannot deliver, a zero-length name, a length byte past MaxNamespaceLen,
	// both extensions stacked but truncated mid-name, and the prefix on a
	// batch opcode.
	h = header(OpGet, FlagTenant, 7, 2)
	f.Add(append(h[:], 5, 'w')) // length 5, one name byte
	h = header(OpGet, FlagTenant, 7, 4)
	f.Add(append(h[:], 0, 0, 1, 'k')) // zero-length namespace
	h = header(OpGet, FlagTenant, 7, 2)
	f.Add(append(h[:], MaxNamespaceLen+1, 'x')) // oversized length byte
	h = header(OpGet, FlagTrace|FlagTenant, 7, traceReqLen+2)
	f.Add(append(append(h[:], make([]byte, traceReqLen)...), 3, 'a')) // trace then cut name
	h = header(OpMGet, FlagTenant, 7, 6)
	f.Add(append(h[:], 2, 'n', 's', 0, 0, 1)) // namespaced MGET, count 0 + junk

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
			if req2.Op != req.Op || req2.ID != req.ID || req2.Key != req.Key ||
				req2.Token != req.Token || req2.Epoch != req.Epoch ||
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
			if req2.Namespace != req.Namespace {
				t.Fatalf("namespace drifted: %q vs %q", req.Namespace, req2.Namespace)
			}
			if (req.Namespace != "") != (req.Flags&FlagTenant != 0) {
				t.Fatalf("tenant/flag desync: flags %x namespace %q", req.Flags, req.Namespace)
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
				resp2.Token != resp.Token ||
				len(resp2.Values) != len(resp.Values) {
				t.Fatalf("response round trip drifted: %+v vs %+v", resp, resp2)
			}
			if resp.Piggyback != nil || resp2.Piggyback != nil {
				if resp.Piggyback == nil || resp2.Piggyback == nil || *resp2.Piggyback != *resp.Piggyback {
					t.Fatalf("piggyback round trip drifted: %+v vs %+v", resp.Piggyback, resp2.Piggyback)
				}
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
