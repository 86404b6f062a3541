//go:build !race

// The race detector instruments allocations, so the hard ==0 assertions
// only hold in a plain build: `go test ./...` runs this file, `go test -race`
// does not, and CI runs the gate as its own non-race step.

package wire

import (
	"fmt"
	"testing"
)

// benchGetRequest is a representative single-key lookup frame.
func benchGetRequest() *Request {
	return &Request{Op: OpGet, ID: 7, Key: "bench:key:0123456789"}
}

// benchGetResponse is a representative hit reply.
func benchGetResponse() *Response {
	return &Response{Op: OpGet, ID: 7, Status: StatusOK, Value: make([]byte, 128)}
}

// benchMGetRequest is a 16-key batch lookup frame.
func benchMGetRequest() *Request {
	req := &Request{Op: OpMGet, ID: 9}
	for i := 0; i < 16; i++ {
		req.Keys = append(req.Keys, fmt.Sprintf("bench:key:%04d", i))
	}
	return req
}

// benchMGetResponse answers 16 keys with every other one a hit.
func benchMGetResponse() *Response {
	resp := &Response{Op: OpMGet, ID: 9, Status: StatusOK}
	for i := 0; i < 16; i++ {
		hit := i%2 == 0
		resp.Found = append(resp.Found, hit)
		if hit {
			resp.Values = append(resp.Values, make([]byte, 128))
		} else {
			resp.Values = append(resp.Values, nil)
		}
	}
	return resp
}

// mustAppendRequest encodes req, failing the test on error.
func mustAppendRequest(tb testing.TB, buf []byte, req *Request) []byte {
	tb.Helper()
	out, err := AppendRequest(buf, req, Limits{})
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// mustAppendResponse encodes resp, failing the test on error.
func mustAppendResponse(tb testing.TB, buf []byte, resp *Response) []byte {
	tb.Helper()
	out, err := AppendResponse(buf, resp, Limits{})
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestHotPathZeroAllocs is the codec's allocation gate: with a reused buffer
// and a reused Request/Response, the encode/decode paths for GET and MGET
// must not allocate in steady state. The copying DecodeRequest/DecodeResponse
// forms are deliberately not gated — owning the bytes is their contract.
// Each case runs once first so one-time slice growth to steady-state
// capacity is excluded — readFrame grows its buffer to the largest frame
// seen, then reuses it.
func TestHotPathZeroAllocs(t *testing.T) {
	lim := Limits{}

	// Each closure captures its reused buffer/struct, the heart of the
	// zero-alloc contract.
	encodeCase := func(req *Request) func() {
		var buf []byte
		return func() { buf = mustAppendRequest(t, buf[:0], req) }
	}
	encodeRespCase := func(resp *Response) func() {
		var buf []byte
		return func() { buf = mustAppendResponse(t, buf[:0], resp) }
	}
	decodeReqCase := func(req *Request) func() {
		frame := mustAppendRequest(t, nil, req)
		var into Request
		return func() {
			if _, err := DecodeRequestInto(&into, frame, lim); err != nil {
				t.Fatal(err)
			}
		}
	}
	decodeRespCase := func(resp *Response) func() {
		frame := mustAppendResponse(t, nil, resp)
		var into Response
		return func() {
			if _, err := DecodeResponseInto(&into, frame, lim); err != nil {
				t.Fatal(err)
			}
		}
	}

	cases := []struct {
		name string
		fn   func() // one steady-state iteration, warmed up before measuring
	}{
		{"get-encode", encodeCase(benchGetRequest())},
		{"get-decode", decodeReqCase(benchGetRequest())},
		{"get-resp-encode", encodeRespCase(benchGetResponse())},
		{"get-resp-decode", decodeRespCase(benchGetResponse())},
		{"mget-encode", encodeCase(benchMGetRequest())},
		{"mget-decode", decodeReqCase(benchMGetRequest())},
		{"mget-resp-encode", encodeRespCase(benchMGetResponse())},
		{"mget-resp-decode", decodeRespCase(benchMGetResponse())},
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.fn() // reach steady state before measuring
			if allocs := testing.AllocsPerRun(100, c.fn); allocs != 0 {
				t.Errorf("%s: %v allocs/op, want 0", c.name, allocs)
			}
		})
	}
}

// TestDecodeIntoMatchesCopyingDecode pins the two decode forms to identical
// results: the zero-copy Into path must parse exactly what the copying path
// parses, field for field, for every opcode the gate covers.
func TestDecodeIntoMatchesCopyingDecode(t *testing.T) {
	lim := Limits{}
	reqs := []*Request{benchGetRequest(), benchMGetRequest()}
	for _, want := range reqs {
		frame := mustAppendRequest(t, nil, want)
		copied, n1, err := DecodeRequest(frame, lim)
		if err != nil {
			t.Fatal(err)
		}
		var into Request
		n2, err := DecodeRequestInto(&into, frame, lim)
		if err != nil {
			t.Fatal(err)
		}
		if n1 != n2 {
			t.Fatalf("%v: consumed %d (copying) vs %d (into)", want.Op, n1, n2)
		}
		if fmt.Sprintf("%+v", *copied) != fmt.Sprintf("%+v", into) {
			t.Errorf("%v: copying decode %+v != into decode %+v", want.Op, *copied, into)
		}
	}

	resps := []*Response{benchGetResponse(), benchMGetResponse()}
	for _, want := range resps {
		frame := mustAppendResponse(t, nil, want)
		copied, n1, err := DecodeResponse(frame, lim)
		if err != nil {
			t.Fatal(err)
		}
		var into Response
		n2, err := DecodeResponseInto(&into, frame, lim)
		if err != nil {
			t.Fatal(err)
		}
		if n1 != n2 {
			t.Fatalf("%v: consumed %d (copying) vs %d (into)", want.Op, n1, n2)
		}
		if fmt.Sprintf("%+v", *copied) != fmt.Sprintf("%+v", into) {
			t.Errorf("%v: copying decode %+v != into decode %+v", want.Op, *copied, into)
		}
	}
}
