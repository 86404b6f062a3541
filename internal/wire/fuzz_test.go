package wire

import (
	"bytes"
	"encoding/binary"
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

		// LOAD: a truncated fill token, FlagNegative without FlagFill, a
		// truncated lease token on the response, and a STALE response whose
		// token arrives but whose value does not.
		{"LOAD fill, token cut short", frame(OpLoad, FlagFill, 1, 2, 3, 4), reqDecoder, "need 8 bytes, have 4"},
		{"LOAD FlagNegative without FlagFill", frame(OpLoad, FlagNegative, 0, 1, 'k'), reqDecoder, "FlagNegative without FlagFill"},
		{"LOAD LEASE, token cut short", frame(OpLoad, uint8(StatusLease), 1, 2, 3, 4), respDecoder, "need 8 bytes, have 4"},
		{"LOAD STALE, token without value", frame(OpLoad, uint8(StatusStale), zeros(8)...), respDecoder, "need 4 bytes, have 0"},

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
		{"VIEW member state 9", frame(OpView, 0, cat(zeros(8), []byte{0, 1, 0, 0, 0, 5, 9, 0, 0})...), reqDecoder, "unknown member state 9"},
		{"VIEW 255 replicas, no bytes", frame(OpView, 0, cat(zeros(8), []byte{0, 0, 0, 1, 0, 0, 0, 3, 0xFF})...), reqDecoder, "replica count 255 exceeds payload capacity"},
		{"VIEW member count 65535", frame(OpView, 0, cat(zeros(8), []byte{0xFF, 0xFF})...), reqDecoder, "batch of 65535 entries exceeds limit 64"},

		// REPLICATE: a replicated delete with value bytes, and a TTL past 2^62.
		{"negative REPLICATE with a value", frame(OpReplicate, FlagNegative, 0, 1, 'k', 0, 0, 0, 0), reqDecoder, "4 trailing payload bytes"},
		{"REPLICATE TTL past 2^62", frame(OpReplicate, 0, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0, 1, 'k', 0, 0, 0, 0), reqDecoder, "TTL 18374686479671623680 overflows a duration"},

		// Piggybacked demand: the bit over a short prefix, and stacked trace
		// and demand prefixes cut inside the demand.
		{"demand prefix one byte short", frame(OpGet, uint8(StatusOK)|respFlagDemand, zeros(nodeDemandLen-1)...), respDecoder, "truncated demand prefix: want 52 bytes, have 51"},
		{"trace, then demand cut short", frame(OpPing, uint8(StatusOK)|respFlagTrace|respFlagDemand, zeros(traceRespLen+8)...), respDecoder, "truncated demand prefix: want 52 bytes, have 8"},

		// Namespace prefix: a name the payload cannot deliver, a zero-length
		// name, a length past MaxNamespaceLen, a name cut after a trace
		// prefix, and junk after a namespaced batch.
		{"namespace cut short", frame(OpGet, FlagTenant, 5, 'w'), reqDecoder, "need 5 bytes, have 1"},
		{"zero-length namespace", frame(OpGet, FlagTenant, 0, 0, 1, 'k'), reqDecoder, "empty namespace with FlagTenant set"},
		{"namespace past MaxNamespaceLen", frame(OpGet, FlagTenant, MaxNamespaceLen+1, 'x'), reqDecoder, "namespace of 65 bytes exceeds 64"},
		{"trace, then namespace cut short", frame(OpGet, FlagTrace|FlagTenant, cat(zeros(traceReqLen), []byte{3, 'a'})...), reqDecoder, "need 3 bytes, have 1"},
		{"namespaced MGET, count 0 then junk", frame(OpMGet, FlagTenant, 2, 'n', 's', 0, 0, 1), reqDecoder, "1 trailing payload bytes"},
	}
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
