package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// fakeServer is a minimal in-test wire server: it answers every request
// with a scripted handler, on plain net primitives (no dependency on
// internal/server, so this package's tests stay a pure client exercise).
type fakeServer struct {
	t  *testing.T
	ln net.Listener

	mu    sync.Mutex
	conns int
}

func newFakeServer(t *testing.T, handler func(req *wire.Request) *wire.Response) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeServer{t: t, ln: ln}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			fs.mu.Lock()
			fs.conns++
			fs.mu.Unlock()
			go func() {
				defer nc.Close()
				var rbuf []byte
				for {
					req := &wire.Request{}
					b, err := wire.ReadRequestInto(req, nc, rbuf, wire.Limits{})
					rbuf = b
					if err != nil {
						return
					}
					resp := handler(req)
					if resp == nil {
						return // scripted hangup mid-conversation
					}
					resp.ID = req.ID
					out, err := wire.AppendResponse(nil, resp, wire.Limits{})
					if err != nil {
						return
					}
					if _, err := nc.Write(out); err != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return fs
}

func (fs *fakeServer) connCount() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.conns
}

func okHandler(req *wire.Request) *wire.Response {
	return &wire.Response{Op: req.Op, Status: wire.StatusOK}
}

func TestClientRetriesTransientHangup(t *testing.T) {
	var mu sync.Mutex
	drops := 2 // hang up on the first two requests, then behave
	fs := newFakeServer(t, func(req *wire.Request) *wire.Response {
		mu.Lock()
		defer mu.Unlock()
		if drops > 0 {
			drops--
			return nil
		}
		return okHandler(req)
	})

	cl, err := New(Config{Addr: fs.ln.Addr().String(), Retries: 2, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping should have healed on retry: %v", err)
	}
	// One connection per failed attempt plus the winning one.
	if got := fs.connCount(); got != 3 {
		t.Fatalf("saw %d connections, want 3 (two dropped + one healthy)", got)
	}
}

func TestClientExhaustsRetries(t *testing.T) {
	fs := newFakeServer(t, func(*wire.Request) *wire.Response { return nil })

	cl, err := New(Config{Addr: fs.ln.Addr().String(), Retries: 1, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Ping()
	if err == nil {
		t.Fatal("ping succeeded against a server that always hangs up")
	}
	if fs.connCount() != 2 {
		t.Fatalf("saw %d connections, want 2 (Retries=1 → 2 attempts)", fs.connCount())
	}
}

func TestClientDialFailureIsRetriedThenReported(t *testing.T) {
	// A listener we close immediately: the port is (almost certainly) dead.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	cl, err := New(Config{Addr: addr, Retries: 1, Backoff: time.Millisecond, DialTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err == nil {
		t.Fatal("ping succeeded against a dead address")
	}
}

func TestClientDoesNotRetryServerError(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	fs := newFakeServer(t, func(req *wire.Request) *wire.Response {
		mu.Lock()
		calls++
		mu.Unlock()
		return &wire.Response{Op: req.Op, Status: wire.StatusErr, Value: []byte("boom")}
	})

	cl, err := New(Config{Addr: fs.ln.Addr().String(), Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Ping()
	var se *ServerError
	if !errors.As(err, &se) || se.Msg != "boom" {
		t.Fatalf("want ServerError(boom), got %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Fatalf("server error was retried: %d calls", calls)
	}
}

func TestClientClosed(t *testing.T) {
	fs := newFakeServer(t, okHandler)
	cl, err := New(Config{Addr: fs.ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := cl.Ping(); !errors.Is(err, ErrClosed) {
		t.Fatalf("op after Close = %v, want ErrClosed", err)
	}
}

func TestClientPoolReuse(t *testing.T) {
	fs := newFakeServer(t, okHandler)
	cl, err := New(Config{Addr: fs.ln.Addr().String(), PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 20; i++ {
		if err := cl.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	if got := fs.connCount(); got != 1 {
		t.Fatalf("sequential ops dialed %d connections, want 1 pooled", got)
	}
}

func TestClientConcurrentOps(t *testing.T) {
	fs := newFakeServer(t, func(req *wire.Request) *wire.Response {
		resp := okHandler(req)
		if req.Op == wire.OpGet {
			resp.Value = []byte(req.Key)
		}
		return resp
	})
	cl, err := New(Config{Addr: fs.ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := fmt.Sprintf("w%d-%d", w, i)
				v, found, err := cl.Get(k)
				if err != nil {
					errs <- err
					return
				}
				if !found || string(v) != k {
					errs <- fmt.Errorf("Get(%q) = (%q, %v)", k, v, found)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestClientRejectsMismatchedResponse(t *testing.T) {
	fs := newFakeServer(t, func(req *wire.Request) *wire.Response {
		// Echo the wrong opcode: the client must refuse to pair it.
		return &wire.Response{Op: wire.OpStats, Status: wire.StatusOK}
	})
	cl, err := New(Config{Addr: fs.ln.Addr().String(), Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); !errors.Is(err, wire.ErrFrame) {
		t.Fatalf("mismatched response accepted: %v", err)
	}
}

// TestClientReportsServerFrameRejection: a server that refuses a frame
// answers out of turn with a PING StatusErr carrying its decoder's error.
// The client must report that text, still as a frame error, and not retry.
func TestClientReportsServerFrameRejection(t *testing.T) {
	fs := newFakeServer(t, func(*wire.Request) *wire.Response {
		return &wire.Response{Op: wire.OpPing, Status: wire.StatusErr,
			Value: []byte("wire: malformed frame: TTL 4611686018427387905 overflows a duration")}
	})
	cl, err := New(Config{Addr: fs.ln.Addr().String(), Retries: 2, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.SetTTL("k", []byte("v"), time.Second)
	want := "server rejected SETTTL id 1: wire: malformed frame: TTL 4611686018427387905 overflows a duration"
	if !errors.Is(err, wire.ErrFrame) || err.Error() != want {
		t.Fatalf("SetTTL error %v, want %q wrapping wire.ErrFrame", err, want)
	}
	if got := fs.connCount(); got != 1 {
		t.Fatalf("saw %d connections, want 1: a frame rejection is not retried", got)
	}
}

func TestTransientClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{io.EOF, true},
		{io.ErrUnexpectedEOF, true},
		{net.ErrClosed, true},
		{&net.OpError{Op: "dial", Err: errors.New("refused")}, true},
		{wire.ErrFrame, false},
		{fmt.Errorf("read: %w", wire.ErrFrame), false},
		{&ServerError{Op: wire.OpGet, Msg: "x"}, false},
		{ErrClosed, false},
		{errors.New("mystery"), false},
	}
	for _, tc := range cases {
		if got := transient(tc.err); got != tc.want {
			t.Errorf("transient(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestBatchQueueAndReset(t *testing.T) {
	fs := newFakeServer(t, okHandler)
	cl, err := New(Config{Addr: fs.ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	b := cl.NewBatch()
	if res, err := b.Do(); err != nil || res != nil {
		t.Fatalf("empty batch Do = (%v, %v), want (nil, nil)", res, err)
	}
	b.Ping()
	b.Set("k", []byte("v"))
	b.Get("k")
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	res, err := b.Do()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	for i, r := range res {
		if r.Err() != nil || r.Status() != wire.StatusOK {
			t.Fatalf("result %d: status %v err %v", i, r.Status(), r.Err())
		}
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("Len after Reset = %d", b.Len())
	}
}

// TestClientDemand pins the client's two demand paths, both riding
// wire.FlagDemand: Heartbeat is a PING that must come back with the
// piggybacked snapshot (a response without one is a protocol error), and
// DemandEvery flags every n-th ordinary request; OnDemand sees every
// snapshot either path brings back.
func TestClientDemand(t *testing.T) {
	want := wire.NodeDemand{NodeID: 3, Sets: 64, TakerSets: 8, GiverSets: 40,
		CoupledSets: 6, ScSSum: 100, ScSMax: 64 * 127, Live: 50, Capacity: 256}
	var mu sync.Mutex
	flagged := map[wire.Op]int{}
	mute := false
	fs := newFakeServer(t, func(req *wire.Request) *wire.Response {
		resp := &wire.Response{Op: req.Op, Status: wire.StatusOK}
		mu.Lock()
		defer mu.Unlock()
		if req.Flags&wire.FlagDemand != 0 && !mute {
			flagged[req.Op]++
			d := want
			resp.Piggyback = &d
		}
		return resp
	})
	count := func(op wire.Op) int {
		mu.Lock()
		defer mu.Unlock()
		return flagged[op]
	}
	var pushed []wire.NodeDemand
	cl, err := New(Config{Addr: fs.ln.Addr().String(), DemandEvery: 4,
		OnDemand: func(d wire.NodeDemand) { pushed = append(pushed, d) }})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i := 0; i < 8; i++ {
		if err := cl.Set("k", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if count(wire.OpSet) != 2 || len(pushed) != 2 {
		t.Fatalf("8 SETs at DemandEvery 4: %d flagged, %d pushed; want 2 and 2", count(wire.OpSet), len(pushed))
	}

	got, err := cl.Heartbeat()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Heartbeat = %+v, want %+v", got, want)
	}
	if count(wire.OpPing) != 1 || len(pushed) != 3 || pushed[2] != want {
		t.Fatalf("heartbeat: %d flagged PINGs, pushed %+v", count(wire.OpPing), pushed)
	}

	mu.Lock()
	mute = true
	mu.Unlock()
	if _, err := cl.Heartbeat(); !errors.Is(err, wire.ErrFrame) {
		t.Fatalf("Heartbeat without a snapshot = %v, want a frame error", err)
	}
}

// armConn counts the deadline arms a round trip costs.
type armConn struct {
	net.Conn
	both, read, write int
}

func (a *armConn) SetDeadline(t time.Time) error      { a.both++; return a.Conn.SetDeadline(t) }
func (a *armConn) SetReadDeadline(t time.Time) error  { a.read++; return a.Conn.SetReadDeadline(t) }
func (a *armConn) SetWriteDeadline(t time.Time) error { a.write++; return a.Conn.SetWriteDeadline(t) }

// TestRoundTripArmsOneDeadline: a round trip — one request or sixteen
// pipelined — arms the connection once, with one SetDeadline covering the
// flush and every response read.
func TestRoundTripArmsOneDeadline(t *testing.T) {
	fs := newFakeServer(t, okHandler)
	cl, err := New(Config{Addr: fs.ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cc, err := cl.get()
	if err != nil {
		t.Fatal(err)
	}
	defer cc.nc.Close()
	ac := &armConn{Conn: cc.nc}
	cc.nc = ac

	for trip, n := range []int{1, 16} {
		reqs := make([]*wire.Request, n)
		for i := range reqs {
			reqs[i] = &wire.Request{Op: wire.OpGet, Key: fmt.Sprintf("k%d", i)}
		}
		if _, err := cl.roundTrip(cc, reqs); err != nil {
			t.Fatal(err)
		}
		if ac.both != trip+1 || ac.read != 0 || ac.write != 0 {
			t.Fatalf("after %d round trips (last: %d requests): %d SetDeadline, %d SetReadDeadline, %d SetWriteDeadline; want %d, 0, 0",
				trip+1, n, ac.both, ac.read, ac.write, trip+1)
		}
	}
}

// TestOpTimeoutOnStalledServer: a server that accepts and never answers costs
// one OpTimeout per attempt, reports a timeout, and its connection is closed,
// not pooled.
func TestOpTimeoutOnStalledServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		nc, _ := ln.Accept()
		accepted <- nc // held open, never read or answered
	}()

	const opTimeout = 60 * time.Millisecond
	cl, err := New(Config{Addr: ln.Addr().String(), OpTimeout: opTimeout, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	err = cl.Ping()
	took := time.Since(start)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("Ping on a stalled server = %v, want a timeout", err)
	}
	if took < opTimeout*9/10 || took > opTimeout+500*time.Millisecond {
		t.Fatalf("Ping failed after %v, want about OpTimeout (%v)", took, opTimeout)
	}
	cl.mu.Lock()
	idle := len(cl.idle)
	cl.mu.Unlock()
	if idle != 0 {
		t.Fatalf("%d connections pooled after a timed-out round trip, want 0", idle)
	}
	if nc := <-accepted; nc != nil {
		nc.Close()
	}
}

// TestCloseWaitsForStaleRefresh: a stale hit returns at once and hands the
// refresh lease to a background goroutine; Close must not return while that
// goroutine's origin call is still running.
func TestCloseWaitsForStaleRefresh(t *testing.T) {
	fs := newFakeServer(t, func(req *wire.Request) *wire.Response {
		if req.Flags&wire.FlagFill != 0 {
			return okHandler(req)
		}
		return &wire.Response{Op: req.Op, Status: wire.StatusStale, Token: 7, Value: []byte("old")}
	})
	cl, err := New(Config{Addr: fs.ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	origin := func(context.Context, string) ([]byte, error) {
		close(entered)
		<-release
		return []byte("new"), nil
	}
	if v, err := cl.GetOrLoad(context.Background(), "k", origin); err != nil || string(v) != "old" {
		t.Fatalf("GetOrLoad = (%q, %v), want the stale value at once", v, err)
	}
	<-entered

	closed := make(chan struct{})
	go func() {
		defer close(closed)
		cl.Close()
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a stale refresh was still fetching")
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the refresh finished")
	}
}
