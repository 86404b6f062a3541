package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// requestFixtures covers every opcode (and every REPLICATE flag) once.
func requestFixtures() []*Request {
	return []*Request{
		{Op: OpPing, ID: 1},
		{Op: OpStats, ID: 2},
		{Op: OpGet, ID: 3, Key: "alpha"},
		{Op: OpDel, ID: 4, Key: ""},
		{Op: OpSet, ID: 5, Key: "k", Value: []byte("v")},
		{Op: OpSetTTL, ID: 7, Key: "t", Value: []byte{0, 1, 2}, TTL: 250 * time.Millisecond},
		{Op: OpSetTTL, ID: 8, Key: "t2", Value: []byte("x"), TTL: 0},
		{Op: OpMGet, ID: 9, Keys: []string{"a", "", "long-key"}},
		{Op: OpMGet, ID: 10, Keys: []string{}},
		{Op: OpMSet, ID: 11, Pairs: []KV{{Key: "a", Value: []byte("1")}, {Key: "b", Value: nil}}},
		{Op: OpGet, ID: 13, Key: "traced", Trace: &TraceExt{ID: 0xDEADBEEFCAFE, SendMicros: 123456789}},
		{Op: OpPing, ID: 15, Trace: &TraceExt{}},
		{Op: OpMGet, ID: 16, Keys: []string{"a", "b"}, Trace: &TraceExt{ID: 7, SendMicros: 1 << 60}},
		{Op: OpView, ID: 26, View: fixtureView()},
		{Op: OpView, ID: 27, View: View{Epoch: 1 << 40,
			Members:  []Member{{State: MemberDead, Addr: "h:1"}},
			Replicas: [][]int{{0}}}},
		{Op: OpView, ID: 28}, // empty tables, epoch 0: a fetch
		{Op: OpReplicate, ID: 29, Key: "rk", Value: []byte("rv"), TTL: 250 * time.Millisecond},
		{Op: OpReplicate, ID: 30, Key: "rk2", Value: nil, TTL: 0},
		{Op: OpReplicate, ID: 31, Flags: FlagNegative, Key: "gone"},
		{Op: OpReplicate, ID: 32, Flags: FlagNX, Key: "rk3", Value: []byte("if absent")},
	}
}

// fixtureView is a three-member view: one member per state, a slot with an
// owner and a follower, and a slot with its owner alone.
func fixtureView() View {
	return View{Epoch: 7,
		Members: []Member{
			{State: MemberAlive, Addr: "127.0.0.1:4000"},
			{State: MemberLeft, Addr: ""},
			{State: MemberDead, Addr: "127.0.0.1:4002"},
		},
		Replicas: [][]int{{1, 2}, {0}}}
}

func responseFixtures() []*Response {
	return []*Response{
		{Op: OpPing, ID: 1, Status: StatusOK},
		{Op: OpGet, ID: 2, Status: StatusOK, Value: []byte("v")},
		{Op: OpGet, ID: 3, Status: StatusNotFound},
		{Op: OpSet, ID: 4, Status: StatusOK},
		{Op: OpSetTTL, ID: 6, Status: StatusOK},
		{Op: OpDel, ID: 7, Status: StatusNotFound},
		{Op: OpMSet, ID: 8, Status: StatusOK},
		{Op: OpMGet, ID: 9, Status: StatusOK,
			Found: []bool{true, false, true}, Values: [][]byte{[]byte("a"), nil, {}}},
		{Op: OpStats, ID: 10, Status: StatusOK, Value: []byte(`{"gets":1}`)},
		{Op: OpGet, ID: 11, Status: StatusErr, Value: []byte("boom")},
		{Op: OpGet, ID: 14, Status: StatusOK, Value: []byte("v"),
			Trace: &TraceExt{ID: 0xDEADBEEFCAFE, SendMicros: 123456789, QueueMicros: 12, HandleMicros: 345}},
		{Op: OpGet, ID: 15, Status: StatusErr, Value: []byte("boom"),
			Trace: &TraceExt{ID: 9, SendMicros: 8, QueueMicros: 1, HandleMicros: 0}},
		{Op: OpMGet, ID: 16, Status: StatusOK, Found: []bool{true}, Values: [][]byte{[]byte("x")},
			Trace: &TraceExt{ID: 1, SendMicros: 1, QueueMicros: 1<<32 - 1, HandleMicros: 1<<32 - 1}},
		{Op: OpView, ID: 26, Status: StatusOK, View: fixtureView()},
		{Op: OpView, ID: 27, Status: StatusErr, Value: []byte("no membership agent")},
		{Op: OpReplicate, ID: 28, Status: StatusOK},
		{Op: OpView, ID: 29, Status: StatusOK}, // a node holding no view
		{Op: OpGet, ID: 30, Status: StatusMoved, View: fixtureView()},
		{Op: OpMSet, ID: 31, Status: StatusMoved, View: View{Epoch: 2,
			Members:  []Member{{Addr: "h:0"}},
			Replicas: [][]int{{0}}},
			Trace: &TraceExt{ID: 3, SendMicros: 4, QueueMicros: 5, HandleMicros: 6}},
	}
}

// normalize maps semantically equal operand encodings onto one form so
// round-trip comparison with DeepEqual is exact: nil and empty slices are
// indistinguishable on the wire.
func normReq(r *Request) {
	// A non-nil Trace encodes with FlagTrace set, so the decoded form
	// always carries the bit.
	if r.Trace != nil {
		r.Flags |= FlagTrace
	}
	if len(r.Value) == 0 {
		r.Value = nil
	}
	if len(r.Keys) == 0 {
		r.Keys = nil
	}
	if len(r.Pairs) == 0 {
		r.Pairs = nil
	}
	for i := range r.Pairs {
		if len(r.Pairs[i].Value) == 0 {
			r.Pairs[i].Value = nil
		}
	}
	normView(&r.View)
}

// normView maps empty view tables onto nil, as normReq does operands.
func normView(v *View) {
	if len(v.Members) == 0 {
		v.Members = nil
	}
	if len(v.Replicas) == 0 {
		v.Replicas = nil
	}
}

func normResp(r *Response) {
	normView(&r.View)
	if len(r.Value) == 0 {
		r.Value = nil
	}
	if len(r.Found) == 0 {
		r.Found, r.Values = nil, nil
	}
	for i := range r.Values {
		if len(r.Values[i]) == 0 {
			r.Values[i] = nil
		}
	}
}

func TestRequestRoundTrip(t *testing.T) {
	lim := Limits{}.withDefaults()
	for _, req := range requestFixtures() {
		buf, err := AppendRequest(nil, req, lim)
		if err != nil {
			t.Fatalf("%v: encode: %v", req.Op, err)
		}
		got, n, err := DecodeRequest(buf, lim)
		if err != nil {
			t.Fatalf("%v: decode: %v", req.Op, err)
		}
		if n != len(buf) {
			t.Fatalf("%v: consumed %d of %d bytes", req.Op, n, len(buf))
		}
		normReq(req)
		normReq(got)
		if !reflect.DeepEqual(got, req) {
			t.Errorf("%v: round trip mismatch\ngot  %+v\nwant %+v", req.Op, got, req)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	lim := Limits{}.withDefaults()
	for _, resp := range responseFixtures() {
		buf, err := AppendResponse(nil, resp, lim)
		if err != nil {
			t.Fatalf("%v/%v: encode: %v", resp.Op, resp.Status, err)
		}
		got, n, err := DecodeResponse(buf, lim)
		if err != nil {
			t.Fatalf("%v/%v: decode: %v", resp.Op, resp.Status, err)
		}
		if n != len(buf) {
			t.Fatalf("%v: consumed %d of %d bytes", resp.Op, n, len(buf))
		}
		normResp(resp)
		normResp(got)
		if !reflect.DeepEqual(got, resp) {
			t.Errorf("%v/%v: round trip mismatch\ngot  %+v\nwant %+v", resp.Op, resp.Status, got, resp)
		}
	}
}

// TestStreamRoundTrip pushes every request fixture through one buffered
// stream, the way a pipelined connection does, and reads them back in order;
// TestResponseStreamRoundTrip does the same for responses.
func TestStreamRoundTrip(t *testing.T) {
	lim := Limits{}.withDefaults()
	var stream bytes.Buffer
	reqs := requestFixtures()
	var buf []byte
	var err error
	for _, req := range reqs {
		if buf, err = AppendRequest(buf[:0], req, lim); err != nil {
			t.Fatal(err)
		}
		stream.Write(buf)
	}
	var rbuf []byte
	for i, want := range reqs {
		got := &Request{}
		rbuf, err = ReadRequestInto(got, &stream, rbuf, lim)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		normReq(want)
		normReq(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("frame %d mismatch: got %+v want %+v", i, got, want)
		}
	}
	if _, err := ReadRequestInto(&Request{}, &stream, rbuf, lim); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
}

// TestResponseStreamRoundTrip reads every response fixture back from one
// stream into one reused Response, as the client's round trip does. Values
// alias the read buffer, so each frame is compared before the next read.
func TestResponseStreamRoundTrip(t *testing.T) {
	lim := Limits{}.withDefaults()
	var stream bytes.Buffer
	resps := responseFixtures()
	var buf []byte
	var err error
	for _, resp := range resps {
		if buf, err = AppendResponse(buf[:0], resp, lim); err != nil {
			t.Fatal(err)
		}
		stream.Write(buf)
	}
	var rbuf []byte
	var got Response
	for i, want := range resps {
		rbuf, err = ReadResponseInto(&got, &stream, rbuf, lim)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		normResp(want)
		normResp(&got)
		if !reflect.DeepEqual(&got, want) {
			t.Errorf("frame %d mismatch: got %+v want %+v", i, got, want)
		}
	}
	if _, err := ReadResponseInto(&got, &stream, rbuf, lim); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
}

func TestDecodeRejects(t *testing.T) {
	lim := Limits{}.withDefaults()
	ok, err := AppendRequest(nil, &Request{Op: OpSet, ID: 9, Key: "kk", Value: []byte("vvvv")}, lim)
	if err != nil {
		t.Fatal(err)
	}
	mut := func(f func(b []byte)) []byte {
		b := append([]byte(nil), ok...)
		f(b)
		return b
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "short header"},
		{"short header", ok[:HeaderLen-1], "short header"},
		{"bad magic", mut(func(b []byte) { b[0] = 'X' }), "bad magic"},
		{"bad version", mut(func(b []byte) { b[1] = 9 }), "unsupported version"},
		{"previous version", mut(func(b []byte) { b[1] = Version - 1 }), "unsupported version"},
		{"unknown opcode", mut(func(b []byte) { b[2] = 0xEE }), "unknown opcode"},
		{"oversized length", mut(func(b []byte) { binary.BigEndian.PutUint32(b[8:12], 1<<31) }), "exceeds limit"},
		{"truncated payload", ok[:len(ok)-1], "truncated frame"},
		{"trailing bytes", append(append([]byte(nil), ok...), 0)[:len(ok)+1], "truncated frame"},
		{"inner length past end", mut(func(b []byte) { binary.BigEndian.PutUint16(b[HeaderLen:], 600) }), "truncated payload"},
	}
	for _, c := range cases {
		// "trailing bytes" needs the header length bumped to cover the junk.
		if c.name == "trailing bytes" {
			c.data = mut(func(b []byte) {})
			c.data = append(c.data, 0)
			binary.BigEndian.PutUint32(c.data[8:12], uint32(len(c.data)-HeaderLen))
			c.want = "trailing payload"
		}
		_, _, err := DecodeRequest(c.data, lim)
		if err == nil {
			t.Errorf("%s: decode accepted", c.name)
			continue
		}
		if !errors.Is(err, ErrFrame) && err != io.EOF {
			t.Errorf("%s: error %v does not wrap ErrFrame", c.name, err)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestBatchCountCannotOverallocate: a frame claiming a huge batch but
// carrying almost no bytes must fail on the count cross-check, before any
// count-sized allocation happens.
func TestBatchCountCannotOverallocate(t *testing.T) {
	lim := Limits{MaxBatch: 65535}.withDefaults()
	payload := []byte{0xFF, 0xFF} // count = 65535, zero entry bytes
	h := header(OpMGet, 0, 1, len(payload))
	frame := append(h[:], payload...)
	_, _, err := DecodeRequest(frame, lim)
	if err == nil || !strings.Contains(err.Error(), "exceeds payload capacity") {
		t.Fatalf("want batch capacity rejection, got %v", err)
	}
}

func TestEncodeRejectsOversize(t *testing.T) {
	lim := Limits{MaxValueLen: 8}
	if _, err := AppendRequest(nil, &Request{Op: OpSet, Key: "k", Value: make([]byte, 9)}, lim); err == nil {
		t.Fatal("oversized value encoded")
	}
	if _, err := AppendRequest(nil, &Request{Op: OpGet, Key: strings.Repeat("k", MaxKeyLen+1)}, lim); err == nil {
		t.Fatal("oversized key encoded")
	}
	if _, err := AppendRequest(nil, &Request{Op: OpMGet, Keys: make([]string, DefaultMaxBatch+1)}, Limits{}); err == nil {
		t.Fatal("oversized batch encoded")
	}
	if _, err := AppendRequest(nil, &Request{}, Limits{}); err == nil {
		t.Fatal("zero-value request encoded")
	}
}

func TestSetTTLRoundTripsNanoseconds(t *testing.T) {
	lim := Limits{}.withDefaults()
	req := &Request{Op: OpSetTTL, Key: "k", Value: []byte("v"), TTL: 1234567891011}
	buf, err := AppendRequest(nil, req, lim)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeRequest(buf, lim)
	if err != nil {
		t.Fatal(err)
	}
	if got.TTL != req.TTL {
		t.Fatalf("TTL %v != %v", got.TTL, req.TTL)
	}
}

// boundaryLimits make the value bound reachable: 8 bytes fit, 9 do not.
var boundaryLimits = Limits{MaxValueLen: 8}

// boundaryFrame is one frame at a boundary operand: the bytes it travels
// as, and what the encoder makes of the operands that produce them.
type boundaryFrame struct {
	name   string
	resp   bool
	data   []byte
	enc    []byte // the encoder's frame under boundaryLimits, when encErr is nil
	encErr error
	// badFlags marks a request whose flags byte holds a bit its op does not
	// take, by the protocol as written out in opFlags.
	badFlags bool
}

// opFlags is the protocol's flag table, written out apart from the ops
// rows so that the codec is checked against it: every op takes FlagTrace,
// REPLICATE also FlagNX and FlagNegative.
func opFlags(op Op) uint8 {
	if op == OpReplicate {
		return FlagTrace | FlagNX | FlagNegative
	}
	return FlagTrace
}

// boundaryFrames builds one frame for every request body (each op under
// every flags byte without FlagTrace) and every (op, status) response,
// statusMax (the first status no end takes) among them, at the boundary
// operands: TTLs of 0, 2^62, 2^62+1 and MaxInt64 ns, values
// and error messages of MaxValueLen and MaxValueLen+1 bytes, and StatusErr
// under the invalid opcodes 0 and opMax. A frame's bytes exist whether or
// not the encoder accepts its operands: each is encoded with tame operands
// under the default limits and then patched to the boundary operand.
// FlagTrace is left to TestTraceExtension, because a trace bit patched in
// without its prefix can misparse by accident.
func boundaryFrames(tb testing.TB) []boundaryFrame {
	tb.Helper()
	var out []boundaryFrame
	for op := OpPing; op < opMax; op++ {
		for f := 0; f < 256; f++ {
			fl := uint8(f)
			if fl&FlagTrace != 0 {
				continue
			}
			for _, ttl := range []time.Duration{0, 1 << 62, 1<<62 + 1, math.MaxInt64} {
				for _, n := range []int{8, 9} {
					req := &Request{Op: op, ID: 1, Flags: fl, TTL: ttl, Key: "k", Value: make([]byte, n),
						Keys: []string{"a", ""}, Pairs: []KV{{Key: "p", Value: make([]byte, n)}},
						View: boundaryView}
					enc, err := AppendRequest(nil, req, boundaryLimits)
					out = append(out, boundaryFrame{name: fmt.Sprintf("%v flags %#x TTL %d value %d", op, fl, ttl, n),
						data: patchedRequest(tb, req), enc: enc, encErr: err, badFlags: fl&^opFlags(op) != 0})
				}
			}
		}
	}
	for op := OpInvalid; op <= opMax; op++ {
		for st := StatusOK; st <= statusMax; st++ {
			if !op.Valid() && st != StatusErr {
				continue
			}
			for _, n := range []int{8, 9} {
				resp := &Response{Op: op, ID: 1, Status: st, Value: make([]byte, n),
					Found: []bool{true, false}, Values: [][]byte{make([]byte, n), nil}, View: boundaryView}
				enc, err := AppendResponse(nil, resp, boundaryLimits)
				tame := *resp
				switch {
				case !op.Valid():
					tame.Op = OpPing
				case st == statusMax:
					// No status past the table encodes; its bytes are an
					// OK answer's under that status byte.
					tame.Status = StatusOK
				case st == StatusMoved && !ops[op].moved:
					// The bytes of a MOVED answer exist for every op; GET's
					// row takes it.
					tame.Op = OpGet
				}
				data, terr := AppendResponse(nil, &tame, Limits{})
				if terr != nil {
					tb.Fatalf("%v/%v: tame encoding: %v", op, st, terr)
				}
				data[2], data[3] = byte(op), byte(st)
				out = append(out, boundaryFrame{name: fmt.Sprintf("%v/%v value %d", op, st, n), resp: true,
					data: data, enc: enc, encErr: err})
			}
		}
	}
	return out
}

// boundaryView is the view every boundary frame carries where its body
// has one.
var boundaryView = View{Epoch: 3, Members: []Member{{Addr: "h:1"}}, Replicas: [][]int{{0}}}

// patchedRequest encodes req under the default limits with its TTL zeroed
// and only the flags its op takes, then patches the flags byte and the TTL
// field back to req's own.
func patchedRequest(tb testing.TB, req *Request) []byte {
	tb.Helper()
	tame := *req
	tame.TTL = 0
	tame.Flags &= opFlags(req.Op)
	data, err := AppendRequest(nil, &tame, Limits{})
	if err != nil {
		tb.Fatalf("%v flags %#x: tame encoding: %v", req.Op, req.Flags, err)
	}
	// The TTL field's last byte is the first one that differs between the
	// encodings of TTL 0 and TTL 1; an op without a TTL encodes both alike.
	tame.TTL = 1
	one, _ := AppendRequest(nil, &tame, Limits{})
	for i := range data {
		if data[i] != one[i] {
			binary.BigEndian.PutUint64(data[i-7:], uint64(req.TTL))
			break
		}
	}
	data[3] = req.Flags
	return data
}

// TestEncodedFramesDecode holds the encoder to the decoder at every boundary
// operand: AppendX accepts the operands iff DecodeX accepts their frame, the
// encoder's frame is that frame, an accepted frame re-encodes to itself, and
// no request whose op does not take one of its flags is accepted.
func TestEncodedFramesDecode(t *testing.T) {
	for _, bf := range boundaryFrames(t) {
		var decErr, reErr error
		var re []byte
		if bf.resp {
			var resp *Response
			if resp, _, decErr = DecodeResponse(bf.data, boundaryLimits); decErr == nil {
				re, reErr = AppendResponse(nil, resp, boundaryLimits)
			}
		} else {
			var req *Request
			if req, _, decErr = DecodeRequest(bf.data, boundaryLimits); decErr == nil {
				re, reErr = AppendRequest(nil, req, boundaryLimits)
			}
		}
		switch {
		case bf.badFlags && decErr == nil:
			t.Errorf("%s: decoder accepted flags the op does not take", bf.name)
		case (bf.encErr == nil) != (decErr == nil):
			t.Errorf("%s: encoder says %v, decoder says %v", bf.name, bf.encErr, decErr)
		case bf.encErr == nil && !bytes.Equal(bf.enc, bf.data):
			t.Errorf("%s: encoder wrote %x, want %x", bf.name, bf.enc, bf.data)
		case decErr == nil && (reErr != nil || !bytes.Equal(re, bf.data)):
			t.Errorf("%s: decoded frame re-encodes to %x (%v), want %x", bf.name, re, reErr, bf.data)
		}
	}
}

// TestTraceExtension pins the trace-extension contract beyond the
// round-trip fixtures: prefix sizes, sender-side rejection of a flag/field
// mismatch, truncation errors, and the saturating micros conversion.
func TestTraceExtension(t *testing.T) {
	lim := Limits{}.withDefaults()

	// The prefix adds exactly traceReqLen / traceRespLen bytes.
	plain, err := AppendRequest(nil, &Request{Op: OpPing, ID: 1}, lim)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := AppendRequest(nil, &Request{Op: OpPing, ID: 1, Trace: &TraceExt{ID: 1}}, lim)
	if err != nil {
		t.Fatal(err)
	}
	if len(traced)-len(plain) != traceReqLen {
		t.Fatalf("request trace prefix is %d bytes, want %d", len(traced)-len(plain), traceReqLen)
	}
	plainR, err := AppendResponse(nil, &Response{Op: OpPing, ID: 1, Status: StatusOK}, lim)
	if err != nil {
		t.Fatal(err)
	}
	tracedR, err := AppendResponse(nil, &Response{Op: OpPing, ID: 1, Status: StatusOK, Trace: &TraceExt{ID: 1}}, lim)
	if err != nil {
		t.Fatal(err)
	}
	if len(tracedR)-len(plainR) != traceRespLen {
		t.Fatalf("response trace prefix is %d bytes, want %d", len(tracedR)-len(plainR), traceRespLen)
	}

	// FlagTrace without the extension would desynchronize the stream; the
	// encoder refuses it.
	if _, err := AppendRequest(nil, &Request{Op: OpPing, Flags: FlagTrace}, lim); err == nil {
		t.Fatal("FlagTrace without trace extension encoded")
	}

	// A status colliding with the response trace bit is refused.
	if _, err := AppendResponse(nil, &Response{Op: OpPing, Status: Status(respFlagTrace)}, lim); err == nil {
		t.Fatal("status with trace bit encoded")
	}

	// Truncated extensions are frame errors, on both frame kinds.
	shortReq := append([]byte(nil), traced[:HeaderLen+traceReqLen-1]...)
	binary.BigEndian.PutUint32(shortReq[8:12], traceReqLen-1)
	if _, _, err := DecodeRequest(shortReq, lim); !errors.Is(err, ErrFrame) {
		t.Fatalf("truncated request trace accepted: %v", err)
	}
	shortResp := append([]byte(nil), tracedR[:HeaderLen+traceRespLen-1]...)
	binary.BigEndian.PutUint32(shortResp[8:12], traceRespLen-1)
	if _, _, err := DecodeResponse(shortResp, lim); !errors.Is(err, ErrFrame) {
		t.Fatalf("truncated response trace accepted: %v", err)
	}

	// An untraced frame carrying trace-sized trailing bytes is rejected by
	// the exact-consumption check, not silently skipped.
	junk := append([]byte(nil), plain...)
	junk = append(junk, make([]byte, traceReqLen)...)
	binary.BigEndian.PutUint32(junk[8:12], traceReqLen)
	if _, _, err := DecodeRequest(junk, lim); !errors.Is(err, ErrFrame) {
		t.Fatalf("untraced frame with trailing trace bytes accepted: %v", err)
	}

	// SaturateMicros clamps on both ends.
	if got := SaturateMicros(-time.Second); got != 0 {
		t.Errorf("SaturateMicros(-1s) = %d", got)
	}
	if got := SaturateMicros(1500 * time.Microsecond); got != 1500 {
		t.Errorf("SaturateMicros(1.5ms) = %d, want 1500", got)
	}
	if got := SaturateMicros(2 * time.Hour); got != 1<<32-1 {
		t.Errorf("SaturateMicros(2h) = %d, want saturated", got)
	}
}

func TestOpAndStatusStrings(t *testing.T) {
	for op := OpPing; op < opMax; op++ {
		if s := op.String(); strings.HasPrefix(s, "Op(") {
			t.Errorf("opcode %d has no name", op)
		}
	}
	if !strings.HasPrefix(Op(200).String(), "Op(") {
		t.Error("unknown opcode should fall back to Op(n)")
	}
	for st := StatusOK; st < statusMax; st++ {
		if s := st.String(); strings.HasPrefix(s, "Status(") {
			t.Errorf("status %d has no name", st)
		}
	}
}
