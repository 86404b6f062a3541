package server

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/stemcache"
	"repro/internal/wire"
)

// ioCounts tallies what served connections ask of their sockets: Read and
// Write calls and the bytes they move.
type ioCounts struct {
	reads, writes, in, out atomic.Int64
}

// ioListener hands the server connections that count their socket I/O.
type ioListener struct {
	net.Listener
	n *ioCounts
}

func (l ioListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &ioConn{Conn: nc, n: l.n}, nil
}

// ioConn counts a Read when it returns, so the read that delivered a request
// is counted before its response leaves, and a Write when it is called, so
// it is counted before the client can see the bytes: once a client holds
// every response, the counts are final.
type ioConn struct {
	net.Conn
	n *ioCounts
}

func (c *ioConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.reads.Add(1)
	c.n.in.Add(int64(k))
	return k, err
}

func (c *ioConn) Write(p []byte) (int, error) {
	c.n.writes.Add(1)
	c.n.out.Add(int64(len(p)))
	return c.Conn.Write(p)
}

// ioServer serves a cache holding k0..k15 (64-byte values) through a
// counting listener and returns the counts and the address.
func ioServer(t *testing.T) (*ioCounts, string) {
	t.Helper()
	cache, err := stemcache.New[string, []byte](stemcache.Config{Capacity: 1 << 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		cache.Set(fmt.Sprintf("k%d", i), make([]byte, 64))
	}
	srv, err := New(cache, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n := new(ioCounts)
	if err := srv.Serve(ioListener{ln, n}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		cache.Close()
	})
	return n, srv.Addr()
}

// ioPerOp is what the server's sockets did per operation.
type ioPerOp struct{ reads, writes, in, out float64 }

// measureIO opens conns connections, sends each trips round trips of batch
// pipelined copies of req in one write, reads every answer (each must carry
// status want), and returns the server's socket I/O per operation over the
// round trips after a warm one.
func measureIO(t *testing.T, n *ioCounts, addr string, req *wire.Request, want wire.Status, batch, conns, trips int) ioPerOp {
	t.Helper()
	var burst []byte
	for i := 0; i < batch; i++ {
		r := *req
		r.ID = uint32(i + 1)
		var err error
		if burst, err = wire.AppendRequest(burst, &r, wire.Limits{}); err != nil {
			t.Fatal(err)
		}
	}
	type client struct {
		nc net.Conn
		br *bufio.Reader
	}
	cls := make([]client, conns)
	for i := range cls {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		// Closed with the test, not here: a handler's last read, the one
		// that sees the close, would land in the next measurement.
		t.Cleanup(func() { nc.Close() })
		cls[i] = client{nc, bufio.NewReader(nc)}
	}
	trip := func(c client, rbuf []byte) ([]byte, error) {
		if _, err := c.nc.Write(burst); err != nil {
			return rbuf, err
		}
		var resp wire.Response
		for i := 0; i < batch; i++ {
			var err error
			if rbuf, err = wire.ReadResponseInto(&resp, c.br, rbuf, wire.Limits{}); err != nil {
				return rbuf, err
			}
			if resp.Status != want {
				return rbuf, fmt.Errorf("%v answered %v, want %v", req.Op, resp.Status, want)
			}
		}
		return rbuf, nil
	}
	for _, c := range cls {
		if _, err := trip(c, nil); err != nil {
			t.Fatal(err)
		}
	}
	r0, w0, in0, out0 := n.reads.Load(), n.writes.Load(), n.in.Load(), n.out.Load()
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for _, c := range cls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rbuf []byte
			for i := 0; i < trips; i++ {
				var err error
				if rbuf, err = trip(c, rbuf); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ops := float64(batch * conns * trips)
	return ioPerOp{
		reads:  float64(n.reads.Load()-r0) / ops,
		writes: float64(n.writes.Load()-w0) / ops,
		in:     float64(n.in.Load()-in0) / ops,
		out:    float64(n.out.Load()-out0) / ops,
	}
}

// TestServeSyscallsPerOp is the count gate for the server's socket I/O,
// taken through a counting listener around Serve's. A burst of pipelined
// frames that arrives in one segment costs one Read and its answers one
// Write, whatever the batch and however many connections run at once: a
// GET is 1 Read and 1 Write alone, 1/16 of each in a batch of 16, at 1 and 8
// concurrent connections. The bytes each op type moves in and out are pinned
// too (a GET reads a 64-byte value, a write stores 8-byte ones), so a field
// added to the wire shows up here as a cost per op.
func TestServeSyscallsPerOp(t *testing.T) {
	n, addr := ioServer(t)
	get := &wire.Request{Op: wire.OpGet, Key: "k1"}
	for _, batch := range []int{1, 16} {
		for _, conns := range []int{1, 8} {
			got := measureIO(t, n, addr, get, wire.StatusOK, batch, conns, 50)
			want := 1 / float64(batch)
			if got.reads != want || got.writes != want {
				t.Errorf("GET batch %d × %d conns: %.4f reads, %.4f writes per op; want %.4f each", batch, conns, got.reads, got.writes, want)
			}
			t.Logf("GET batch %d × %d conns: %.4f reads, %.4f writes, %.0f B in, %.0f B out per op", batch, conns, got.reads, got.writes, got.in, got.out)
		}
	}

	val := make([]byte, 8)
	keys := []string{"k1", "k2", "k3", "k4"}
	pairs := make([]wire.KV, len(keys))
	for i, k := range keys {
		pairs[i] = wire.KV{Key: "w" + k, Value: val}
	}
	for _, c := range []struct {
		name    string
		req     *wire.Request
		status  wire.Status
		in, out float64
	}{
		{"PING", &wire.Request{Op: wire.OpPing}, wire.StatusOK, 12, 12},
		{"GET hit", get, wire.StatusOK, 16, 80},
		{"GET miss", &wire.Request{Op: wire.OpGet, Key: "absent"}, wire.StatusNotFound, 20, 12},
		{"SET", &wire.Request{Op: wire.OpSet, Key: "wk0", Value: val}, wire.StatusOK, 29, 12},
		{"DEL miss", &wire.Request{Op: wire.OpDel, Key: "absent"}, wire.StatusNotFound, 20, 12},
		{"MGET×4", &wire.Request{Op: wire.OpMGet, Keys: keys}, wire.StatusOK, 30, 290},
		{"MSET×4", &wire.Request{Op: wire.OpMSet, Pairs: pairs}, wire.StatusOK, 82, 12},
	} {
		got := measureIO(t, n, addr, c.req, c.status, 1, 1, 20)
		if got.reads != 1 || got.writes != 1 || got.in != c.in || got.out != c.out {
			t.Errorf("%s: %.2f reads, %.2f writes, %.0f B in, %.0f B out per op; want 1, 1, %.0f, %.0f", c.name, got.reads, got.writes, got.in, got.out, c.in, c.out)
		}
		t.Logf("%s: %.0f B in, %.0f B out per op", c.name, got.in, got.out)
	}
}
