package server_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/stemcache"
	"repro/internal/wire"
)

// newCache builds the string→bytes cache the server serves.
func newCache(t *testing.T, cfg stemcache.Config) *stemcache.Cache[string, []byte] {
	t.Helper()
	c, err := stemcache.New[string, []byte](cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// startServer spins up a loopback server (and tears it down with the test).
func startServer(t *testing.T, ccfg stemcache.Config, scfg server.Config) (*server.Server, *stemcache.Cache[string, []byte]) {
	t.Helper()
	cache := newCache(t, ccfg)
	srv, err := server.New(cache, scfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		cache.Close()
	})
	return srv, cache
}

func newClient(t *testing.T, addr string) *client.Client {
	t.Helper()
	cl, err := client.New(client.Config{Addr: addr, OpTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func TestServeBasicOps(t *testing.T) {
	srv, _ := startServer(t, stemcache.Config{Capacity: 1 << 12, Seed: 1}, server.Config{})
	cl := newClient(t, srv.Addr())

	if err := cl.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if _, found, err := cl.Get("missing"); err != nil || found {
		t.Fatalf("Get(missing) = found=%v err=%v, want absent", found, err)
	}
	if err := cl.Set("k", []byte("v1")); err != nil {
		t.Fatalf("set: %v", err)
	}
	v, found, err := cl.Get("k")
	if err != nil || !found || string(v) != "v1" {
		t.Fatalf("Get(k) = (%q, %v, %v), want (v1, true, nil)", v, found, err)
	}

	// SetNX: refused on a resident key, with the resident value.
	actual, stored, err := cl.SetNX("k", []byte("v2"))
	if err != nil || stored || string(actual) != "v1" {
		t.Fatalf("SetNX(resident) = (%q, %v, %v), want (v1, false, nil)", actual, stored, err)
	}
	if _, stored, err = cl.SetNX("fresh", []byte("f")); err != nil || !stored {
		t.Fatalf("SetNX(fresh) = stored=%v err=%v, want stored", stored, err)
	}

	// Delete reports exact prior presence.
	if found, err := cl.Del("k"); err != nil || !found {
		t.Fatalf("Del(k) = (%v, %v), want (true, nil)", found, err)
	}
	if found, err := cl.Del("k"); err != nil || found {
		t.Fatalf("second Del(k) = (%v, %v), want (false, nil)", found, err)
	}

	// Batched MSET/MGET round trip, with a hole.
	pairs := []wire.KV{{Key: "a", Value: []byte("1")}, {Key: "b", Value: []byte("2")}}
	if err := cl.MSet(pairs); err != nil {
		t.Fatalf("mset: %v", err)
	}
	values, foundAll, err := cl.MGet([]string{"a", "hole", "b"})
	if err != nil {
		t.Fatalf("mget: %v", err)
	}
	wantV := [][]byte{[]byte("1"), nil, []byte("2")}
	wantF := []bool{true, false, true}
	for i := range wantV {
		if foundAll[i] != wantF[i] || !bytes.Equal(values[i], wantV[i]) {
			t.Fatalf("mget[%d] = (%q, %v), want (%q, %v)", i, values[i], foundAll[i], wantV[i], wantF[i])
		}
	}
}

func TestServeTTL(t *testing.T) {
	srv, _ := startServer(t, stemcache.Config{Capacity: 1 << 10, Seed: 1}, server.Config{})
	cl := newClient(t, srv.Addr())

	if err := cl.SetTTL("ephemeral", []byte("x"), 30*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, found, err := cl.Get("ephemeral"); err != nil || !found {
		t.Fatalf("entry not resident immediately: found=%v err=%v", found, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, found, err := cl.Get("ephemeral")
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("entry never expired")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestServeStats(t *testing.T) {
	reg := obs.NewRegistry()
	srv, cache := startServer(t,
		stemcache.Config{Capacity: 1 << 10, Seed: 1},
		server.Config{Metrics: reg})
	cl := newClient(t, srv.Addr())

	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("k%d", i)
		if _, found, err := cl.Get(k); err != nil {
			t.Fatal(err)
		} else if !found {
			if err := cl.Set(k, []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	raw, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var snap server.StatsSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("stats payload does not decode: %v\n%s", err, raw)
	}
	if snap.Cache.Gets != 50 || snap.Cache.Misses != 50 {
		t.Fatalf("cache stats %+v: want Gets=50 Misses=50", snap.Cache)
	}
	if snap.Len != 50 || snap.Requests != 101 {
		t.Fatalf("snapshot Len=%d Requests=%d, want 50 and 101", snap.Len, snap.Requests)
	}
	if snap.ProtoErrors != 0 {
		t.Fatalf("ProtoErrors = %d, want 0", snap.ProtoErrors)
	}
	if cache.Len() != 50 {
		t.Fatalf("server cache Len = %d, want 50", cache.Len())
	}
	// The registry derives server.requests from the counter STATS reports.
	metrics := reg.Snapshot()
	if got := metrics["server.requests"]; got != uint64(101) || got != snap.Requests {
		t.Fatalf("obs server.requests = %v, want 101 like STATS Requests (%d)", got, snap.Requests)
	}
	if got := metrics["server.conns_accepted"]; got != snap.ConnsAccepted {
		t.Fatalf("obs server.conns_accepted = %v, STATS says %d", got, snap.ConnsAccepted)
	}
	for _, name := range []string{"server.proto_errors", "server.io_errors", "server.batch_keys", "server.loads",
		"server.load_dedup", "server.stale_served", "server.negative_hits", "server.lease_breaks"} {
		if got, ok := metrics[name].(uint64); !ok || got != 0 {
			t.Errorf("obs %s = %v, want a counter at 0", name, metrics[name])
		}
	}
}

// TestServeDemandAndRoleGauges drives the node-demand export end to end:
// the heartbeat's piggybacked snapshot and the STATS document must both
// carry the cache's taker/giver/coupled gauges, agree with each other, and
// echo the configured node id.
func TestServeDemandAndRoleGauges(t *testing.T) {
	srv, cache := startServer(t,
		stemcache.Config{Capacity: 1 << 10, Seed: 1},
		server.Config{NodeID: 7})
	cl := newClient(t, srv.Addr())

	// Some traffic so Live and the SCDM counters are nontrivial.
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("k%d", i)
		if err := cl.Set(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cl.Get(k); err != nil {
			t.Fatal(err)
		}
	}

	d, err := cl.Heartbeat()
	if err != nil {
		t.Fatal(err)
	}
	if d.NodeID != 7 {
		t.Fatalf("demand NodeID = %d, want 7", d.NodeID)
	}
	if d.Sets == 0 || d.ScSMax == 0 {
		t.Fatalf("demand has empty geometry: %+v", d)
	}
	if d.GiverSets > d.Sets || d.TakerSets > d.Sets {
		t.Fatalf("role counts exceed set count: %+v", d)
	}
	if d.Live != 64 || d.Capacity != uint64(cache.Capacity()) {
		t.Fatalf("Live=%d Capacity=%d, want 64 and %d", d.Live, d.Capacity, cache.Capacity())
	}

	raw, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var snap server.StatsSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("stats payload does not decode: %v\n%s", err, raw)
	}
	if snap.NodeID != 7 {
		t.Fatalf("stats NodeID = %d, want 7", snap.NodeID)
	}
	// No cache traffic happened between the two reads, so the instantaneous
	// gauges must agree exactly.
	if snap.Cache.TakerSets != uint64(d.TakerSets) ||
		snap.Cache.GiverSets != uint64(d.GiverSets) ||
		snap.Cache.CoupledSets != uint64(d.CoupledSets) {
		t.Fatalf("STATS gauges (%d, %d, %d) disagree with the heartbeat's (%d, %d, %d)",
			snap.Cache.TakerSets, snap.Cache.GiverSets, snap.Cache.CoupledSets,
			d.TakerSets, d.GiverSets, d.CoupledSets)
	}
}

// TestServePipelinedBatch drives one connection with a large pipelined
// batch and checks every response arrives in order.
func TestServePipelinedBatch(t *testing.T) {
	srv, _ := startServer(t, stemcache.Config{Capacity: 1 << 12, Seed: 1}, server.Config{})
	cl := newClient(t, srv.Addr())

	b := cl.NewBatch()
	const n = 500
	for i := 0; i < n; i++ {
		b.Set(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i)))
	}
	for i := 0; i < n; i++ {
		b.Get(fmt.Sprintf("k%d", i))
	}
	res, err := b.Do()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2*n {
		t.Fatalf("got %d results, want %d", len(res), 2*n)
	}
	for i := 0; i < n; i++ {
		v, found := res[n+i].Get()
		if !found || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("batched Get %d = (%q, %v)", i, v, found)
		}
	}
}

// TestServeConcurrentClients hammers one server from several goroutines
// (run under -race in CI).
func TestServeConcurrentClients(t *testing.T) {
	srv, _ := startServer(t, stemcache.Config{Capacity: 1 << 12, Shards: 8, Seed: 1}, server.Config{})

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := client.New(client.Config{Addr: srv.Addr()})
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < 300; i++ {
				k := fmt.Sprintf("w%dk%d", w, i%50)
				if _, found, err := cl.Get(k); err != nil {
					errs <- fmt.Errorf("get: %w", err)
					return
				} else if !found {
					if err := cl.Set(k, []byte(k)); err != nil {
						errs <- fmt.Errorf("set: %w", err)
						return
					}
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

// TestGracefulDrain pins the drain guarantee: requests written before Close
// all get responses, even though the client never read any of them before
// the drain began.
func TestGracefulDrain(t *testing.T) {
	cache := newCache(t, stemcache.Config{Capacity: 1 << 12, Seed: 1})
	srv, err := server.New(cache, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	const n = 200
	var buf []byte
	for i := 0; i < n; i++ {
		req := &wire.Request{Op: wire.OpSet, ID: uint32(i + 1), Key: fmt.Sprintf("k%d", i), Value: []byte("v")}
		if buf, err = wire.AppendRequest(buf, req, wire.Limits{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}

	// Wait until every request has been read and executed (requests still in
	// the socket when a drain begins are dropped by design — the client
	// retries those; responses to *read* requests must not be lost).
	deadline := time.Now().Add(5 * time.Second)
	for cache.Stats().Puts < n {
		if time.Now().After(deadline) {
			t.Fatalf("server processed %d of %d requests", cache.Stats().Puts, n)
		}
		time.Sleep(time.Millisecond)
	}

	// Drain with none of the responses read yet; Close must not return
	// before they are flushed.
	if err := srv.Close(); err != nil {
		t.Fatalf("drain close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close not idempotent: %v", err)
	}

	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	var rbuf []byte
	for i := 0; i < n; i++ {
		var resp *wire.Response
		resp, rbuf, err = wire.ReadResponse(nc, rbuf, wire.Limits{})
		if err != nil {
			t.Fatalf("response %d lost in drain: %v", i, err)
		}
		if resp.ID != uint32(i+1) || resp.Status != wire.StatusOK {
			t.Fatalf("response %d: id=%d status=%v", i, resp.ID, resp.Status)
		}
	}
	if got := cache.Stats().Puts; got != n {
		t.Fatalf("cache saw %d puts, want %d", got, n)
	}

	// After the drain, new connections are refused.
	if _, err := net.DialTimeout("tcp", srv.Addr(), time.Second); err == nil {
		t.Fatal("dial succeeded after Close")
	}
}

// TestMaxConnsBackpressure: with MaxConns=1 a second connection is not
// served until the first goes away.
func TestMaxConnsBackpressure(t *testing.T) {
	srv, _ := startServer(t, stemcache.Config{Capacity: 1 << 10, Seed: 1},
		server.Config{MaxConns: 1})

	ping := func(id uint32) []byte {
		b, err := wire.AppendRequest(nil, &wire.Request{Op: wire.OpPing, ID: id}, wire.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	nc1, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc1.Close()
	if _, err := nc1.Write(ping(1)); err != nil {
		t.Fatal(err)
	}
	nc1.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := wire.ReadResponse(nc1, nil, wire.Limits{}); err != nil {
		t.Fatalf("first conn not served: %v", err)
	}

	// Second conn connects (listen backlog) but must not be served while
	// the first is alive.
	nc2, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc2.Close()
	if _, err := nc2.Write(ping(2)); err != nil {
		t.Fatal(err)
	}
	nc2.SetReadDeadline(time.Now().Add(400 * time.Millisecond))
	if _, _, err := wire.ReadResponse(nc2, nil, wire.Limits{}); err == nil {
		t.Fatal("second conn served beyond MaxConns")
	} else if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Fatalf("want timeout while gated, got %v", err)
	}

	// Freeing the first slot admits the second connection.
	nc1.Close()
	nc2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := wire.ReadResponse(nc2, nil, wire.Limits{}); err != nil {
		t.Fatalf("second conn not served after slot freed: %v", err)
	}
}

// TestMalformedFrameAnswersThenCloses: garbage on the wire earns one
// best-effort StatusErr response and a close, and counts as a proto error.
func TestMalformedFrameAnswersThenCloses(t *testing.T) {
	srv, _ := startServer(t, stemcache.Config{Capacity: 1 << 10, Seed: 1}, server.Config{})

	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, _, err := wire.ReadResponse(nc, nil, wire.Limits{})
	if err != nil {
		t.Fatalf("no error response for malformed frame: %v", err)
	}
	if resp.Status != wire.StatusErr {
		t.Fatalf("status %v, want StatusErr", resp.Status)
	}
	if !strings.Contains(string(resp.Value), "bad magic") {
		t.Fatalf("error %q does not name the problem", resp.Value)
	}
	// The connection is closed afterwards.
	if _, _, err := wire.ReadResponse(nc, nil, wire.Limits{}); err == nil {
		t.Fatal("connection stayed open after protocol error")
	}

	// The counter surfaced it.
	cl := newClient(t, srv.Addr())
	raw, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var snap server.StatsSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.ProtoErrors != 1 {
		t.Fatalf("ProtoErrors = %d, want 1", snap.ProtoErrors)
	}
}

// TestTTLPastWireRangeFailsAtSender: a TTL beyond the wire's 2^62 ns is
// refused by the client's encoder, so the frame never reaches the server,
// the connection stays usable and no protocol error is counted.
func TestTTLPastWireRangeFailsAtSender(t *testing.T) {
	srv, _ := startServer(t, stemcache.Config{Capacity: 1 << 10, Seed: 1}, server.Config{})
	cl := newClient(t, srv.Addr())

	err := cl.SetTTL("k", []byte("v"), 200*365*24*time.Hour)
	if err == nil || errors.Is(err, wire.ErrFrame) || !strings.Contains(err.Error(), "TTL") {
		t.Fatalf("SetTTL(200 years) = %v, want the encoder's TTL error", err)
	}
	if err := cl.Set("k", []byte("v")); err != nil {
		t.Fatalf("Set after the refused SetTTL: %v", err)
	}
	if v, found, err := cl.Get("k"); err != nil || !found || string(v) != "v" {
		t.Fatalf("Get(k) = (%q, %v, %v), want (v, true, nil)", v, found, err)
	}
	raw, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var snap server.StatsSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.ProtoErrors != 0 {
		t.Fatalf("ProtoErrors = %d, want 0", snap.ProtoErrors)
	}
}

// TestIdleTimeout: a silent connection is closed at IdleTimeout — not
// before it, and not at some coarser tick after it — and a frame restarts
// the idle budget.
func TestIdleTimeout(t *testing.T) {
	const idle = 40 * time.Millisecond
	srv, _ := startServer(t, stemcache.Config{Capacity: 1 << 10, Seed: 1},
		server.Config{IdleTimeout: idle})

	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// One frame halfway through the first idle budget: the close below must
	// be measured from this frame, not from the dial.
	time.Sleep(idle / 2)
	ping, err := wire.AppendRequest(nil, &wire.Request{Op: wire.OpPing, ID: 1}, wire.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(ping); err != nil {
		t.Fatal(err)
	}
	if _, _, err := wire.ReadResponse(nc, nil, wire.Limits{}); err != nil {
		t.Fatalf("ping on a connection inside its idle budget: %v", err)
	}
	start := time.Now()

	nc.SetReadDeadline(start.Add(5 * time.Second))
	one := make([]byte, 1)
	if _, err := nc.Read(one); err == nil {
		t.Fatal("read returned data from an idle close")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("idle connection was not closed")
	}
	// The upper bound leaves the scheduler ~100 ms of slack and still sits
	// well under the 250 ms a polling loop would round up to.
	if took := time.Since(start); took < idle*9/10 || took > idle+100*time.Millisecond {
		t.Fatalf("idle connection closed after %v, want about %v", took, idle)
	}
}

// TestDrainBetweenFrames races Close against a connection whose handler is
// on its way back to waiting for the next frame — the window in which a
// re-armed read deadline could overwrite the drain's wake-up. A drain that
// is slept through leaves Close waiting out DrainTimeout and reporting it.
func TestDrainBetweenFrames(t *testing.T) {
	ping, err := wire.AppendRequest(nil, &wire.Request{Op: wire.OpPing, ID: 1}, wire.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	cache := newCache(t, stemcache.Config{Capacity: 1 << 8, Seed: 1})
	defer cache.Close()
	for i := 0; i < 300; i++ {
		srv, err := server.New(cache, server.Config{DrainTimeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		nc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write(ping); err != nil {
			t.Fatal(err)
		}
		// Odd rounds close while the request may still be in flight, even
		// rounds right after its response: both sides of the frame boundary.
		if i%2 == 0 {
			if _, _, err := wire.ReadResponse(nc, nil, wire.Limits{}); err != nil {
				t.Fatalf("round %d: %v", i, err)
			}
		}
		if err := srv.Close(); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		nc.Close()
	}
}

// parkingReplicator holds the first replicated SET inside Server.handle
// until release is closed.
type parkingReplicator struct {
	parked, release chan struct{}
	once            sync.Once
}

func (p *parkingReplicator) ReplicateSet(string, string, []byte, time.Duration) {
	p.once.Do(func() {
		close(p.parked)
		<-p.release
	})
}

func (p *parkingReplicator) ReplicateDelete(string, string) {}

// TestCloseWaitsForParkedHandler: Close joins every connection handler, even
// one that outlives DrainTimeout. Force-closing the socket cannot unblock a
// handler parked inside a hook, so Close must keep waiting until the hook
// returns — a handler the WaitGroup does not track would outlive Close.
func TestCloseWaitsForParkedHandler(t *testing.T) {
	const drain = 20 * time.Millisecond
	srv, _ := startServer(t, stemcache.Config{Capacity: 1 << 10, Seed: 1}, server.Config{DrainTimeout: drain})
	rep := &parkingReplicator{parked: make(chan struct{}), release: make(chan struct{})}
	srv.SetHooks(&server.Hooks{Replicator: rep})
	cl := newClient(t, srv.Addr())

	setDone := make(chan struct{})
	go func() {
		defer close(setDone)
		cl.Set("k", []byte("v")) // fails once the server cuts the conn; only the parking matters
	}()
	<-rep.parked

	closed := make(chan struct{})
	go func() {
		defer close(closed)
		srv.Close()
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a handler was parked inside a hook")
	case <-time.After(10 * drain):
	}
	close(rep.release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the parked handler was released")
	}
	<-setDone
}

func TestCloseBeforeServe(t *testing.T) {
	cache := newCache(t, stemcache.Config{Capacity: 1 << 8, Seed: 1})
	srv, err := server.New(cache, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close before serve: %v", err)
	}
	if err := srv.Start("127.0.0.1:0"); err == nil {
		t.Fatal("Serve after Close succeeded")
	}
}

func TestNewRejectsNilCache(t *testing.T) {
	if _, err := server.New(nil, server.Config{}); err == nil {
		t.Fatal("nil cache accepted")
	}
}

// halfSet encodes one SET frame with a 4 KiB value and splits it in the
// middle of the payload.
func halfSet(t *testing.T) (head, tail []byte) {
	t.Helper()
	frame, err := wire.AppendRequest(nil, &wire.Request{Op: wire.OpSet, ID: 1, Key: "k", Value: make([]byte, 4096)}, wire.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	return frame[:len(frame)/2], frame[len(frame)/2:]
}

// TestReadTimeoutBoundsWholeFrame: ReadTimeout runs from the first wait
// inside a frame and covers the whole frame — a sender that stalls mid-frame
// and then trickles a byte every ReadTimeout/4 is cut at ReadTimeout, not
// kept alive by each byte.
func TestReadTimeoutBoundsWholeFrame(t *testing.T) {
	const readTimeout = 200 * time.Millisecond
	srv, _ := startServer(t, stemcache.Config{Capacity: 1 << 10, Seed: 1},
		server.Config{ReadTimeout: readTimeout})

	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	head, tail := halfSet(t)
	if _, err := nc.Write(head); err != nil {
		t.Fatal(err)
	}
	start := time.Now()

	one := make([]byte, 1)
	for i := 0; ; i++ {
		// Each round waits ReadTimeout/4 for the close, then trickles a byte.
		nc.SetReadDeadline(time.Now().Add(readTimeout / 4))
		_, err := nc.Read(one)
		if err == nil {
			t.Fatal("server answered half a frame")
		}
		if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
			break // closed by the server
		}
		if i >= len(tail)-1 || time.Since(start) > 10*readTimeout {
			t.Fatalf("connection still open %v after the stall; ReadTimeout is %v", time.Since(start), readTimeout)
		}
		nc.Write(tail[i : i+1])
	}
	if took := time.Since(start); took < readTimeout*9/10 || took > readTimeout+150*time.Millisecond {
		t.Fatalf("stalled frame cut after %v, want about ReadTimeout (%v)", took, readTimeout)
	}
}

// TestDrainMidFrame lands Close while the handler waits for the rest of a
// frame — parked in the socket read, on its way into it, or with the rest of
// the frame arriving at the same moment. The frame is either finished and
// answered or the connection closes; Close never waits out DrainTimeout for
// a sender that may never finish.
func TestDrainMidFrame(t *testing.T) {
	head, tail := halfSet(t)
	cache := newCache(t, stemcache.Config{Capacity: 1 << 8, Seed: 1})
	defer cache.Close()
	for i := 0; i < 60; i++ {
		srv, err := server.New(cache, server.Config{DrainTimeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		nc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write(head); err != nil {
			t.Fatal(err)
		}
		switch i % 3 {
		case 0: // let the handler park in the mid-frame read
			time.Sleep(5 * time.Millisecond)
		case 1: // race the handler into the frame
		case 2: // the rest of the frame races the drain
			if _, err := nc.Write(tail); err != nil {
				t.Fatal(err)
			}
		}
		if err := srv.Close(); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		// Answered, or closed: nothing else may come back.
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		resp, _, err := wire.ReadResponse(nc, nil, wire.Limits{})
		if err == nil && (resp.ID != 1 || resp.Status != wire.StatusOK) {
			t.Fatalf("round %d: response id=%d status=%v", i, resp.ID, resp.Status)
		}
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("round %d: connection neither answered nor closed after the drain", i)
		}
		nc.Close()
	}
}
