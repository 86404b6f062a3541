package server

import (
	"bufio"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stemcache"
	"repro/internal/wire"
)

// armCounts tallies what a served connection asks of the timer heap and the
// clock: deadline arms by direction, and wallClock reads.
type armCounts struct {
	read, write, both, clock atomic.Int64
}

// armListener hands the server connections that count their deadline arms.
type armListener struct {
	net.Listener
	n *armCounts
}

func (l armListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &armConn{Conn: nc, n: l.n}, nil
}

type armConn struct {
	net.Conn
	n *armCounts
}

func (a *armConn) SetDeadline(t time.Time) error { a.n.both.Add(1); return a.Conn.SetDeadline(t) }
func (a *armConn) SetReadDeadline(t time.Time) error {
	a.n.read.Add(1)
	return a.Conn.SetReadDeadline(t)
}
func (a *armConn) SetWriteDeadline(t time.Time) error {
	a.n.write.Add(1)
	return a.Conn.SetWriteDeadline(t)
}

// countedServer serves a cache warmed with keys k0..k(keys-1) through a
// counting listener, with the package clock swapped for a counting one, and
// returns a raw connection to it. Everything is undone with the test.
func countedServer(tb testing.TB, keys int) (*armCounts, net.Conn) {
	tb.Helper()
	n := new(armCounts)
	real := wallClock
	wallClock = func() time.Time { n.clock.Add(1); return real() }
	tb.Cleanup(func() { wallClock = real }) // runs after the server has closed

	cache, err := stemcache.New[string, []byte](stemcache.Config{Capacity: 1 << 12, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		cache.Set(fmt.Sprintf("k%d", i), make([]byte, 64))
	}
	srv, err := New(cache, Config{})
	if err != nil {
		tb.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	if err := srv.Serve(armListener{ln, n}); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		srv.Close()
		cache.Close()
	})
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { nc.Close() })
	return n, nc
}

// getBurst encodes GETs for k0..k(n-1) as one buffer.
func getBurst(tb testing.TB, n int) []byte {
	tb.Helper()
	var buf []byte
	for i := 0; i < n; i++ {
		var err error
		req := &wire.Request{Op: wire.OpGet, ID: uint32(i + 1), Key: fmt.Sprintf("k%d", i)}
		if buf, err = wire.AppendRequest(buf, req, wire.Limits{}); err != nil {
			tb.Fatal(err)
		}
	}
	return buf
}

// roundTrip writes burst and reads n found-GET responses.
func roundTrip(tb testing.TB, nc net.Conn, br *bufio.Reader, burst []byte, n int, rbuf []byte) []byte {
	if _, err := nc.Write(burst); err != nil {
		tb.Fatal(err)
	}
	var resp wire.Response
	for i := 0; i < n; i++ {
		var err error
		if rbuf, err = wire.ReadResponseInto(&resp, br, rbuf, wire.Limits{}); err != nil {
			tb.Fatal(err)
		}
		if resp.Status != wire.StatusOK {
			tb.Fatalf("response %d: status %v, want a hit", i, resp.Status)
		}
	}
	return rbuf
}

// TestPipelinedBurstArmsAndClockReads is the count gate for the server's
// deadlines: 32 GET frames delivered in one write are served from the read
// buffer, so the whole burst costs the idle arm it was awaited under, one
// write-deadline arm for its one flush, and the idle arm of the wait that
// follows — not two arms and two clock reads per frame. The clock is read
// once per arm and never per frame: untraced frames on an uninstrumented
// server have no stage to time.
func TestPipelinedBurstArmsAndClockReads(t *testing.T) {
	const frames = 32
	n, nc := countedServer(t, frames)
	roundTrip(t, nc, bufio.NewReader(nc), getBurst(t, frames), frames, nil)

	// The handler goes back to its idle wait after the flush; once that arm
	// is counted it is parked in the socket read and counts nothing more.
	deadline := time.Now().Add(5 * time.Second)
	for n.read.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("handler never re-armed its idle wait: %d read arms", n.read.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if r, w, b := n.read.Load(), n.write.Load(), n.both.Load(); r > 2 || w != 1 || b != 0 {
		t.Errorf("%d-frame burst: %d read arms, %d write arms, %d SetDeadline; want <= 2, 1, 0", frames, r, w, b)
	}
	if c := n.clock.Load(); c > 3 {
		t.Errorf("%d-frame burst: %d clock reads, want <= 3", frames, c)
	}
}

// benchGets drives b.N round trips of perTrip pipelined GETs over one
// loopback connection and reports the server's cost per key.
func benchGets(b *testing.B, perTrip int) {
	n, nc := countedServer(b, perTrip)
	burst := getBurst(b, perTrip)
	br := bufio.NewReader(nc)
	rbuf := roundTrip(b, nc, br, burst, perTrip, nil) // warm buffers
	arms0, clock0 := n.read.Load(), n.clock.Load()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rbuf = roundTrip(b, nc, br, burst, perTrip, rbuf)
	}
	b.StopTimer()
	keys := float64(b.N * perTrip)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/keys, "ns/key")
	b.ReportMetric(float64(n.read.Load()-arms0)/keys, "rd-arms/key")
	b.ReportMetric(float64(n.clock.Load()-clock0)/keys, "clock/key")
}

// BenchmarkPipelinedGet: 16 warm GETs per round trip, the serve-batch shape.
func BenchmarkPipelinedGet(b *testing.B) { benchGets(b, 16) }

// BenchmarkLoneGet: one warm GET per round trip, the serve-get shape.
func BenchmarkLoneGet(b *testing.B) { benchGets(b, 1) }
