package server_test

// End-to-end tests of the OpLoad lease protocol: origin-fetch deduplication
// across client processes, negative caching, stale-while-revalidate, and
// lease takeover from a dead leaseholder. These run over real loopback
// connections, so staleness is driven by short real TTLs rather than an
// injected clock — the deterministic boundary semantics are pinned by the
// stemcache package's own tests.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/stemcache"
)

// TestLoadLeaseDedupAcrossClients is the thundering herd: every round, 64
// callers spread over four clients (four processes' worth of connection
// pools) slam one cold key behind a slow origin. A distinct key per round
// makes every round a guaranteed miss, so the lease must cost exactly one
// origin fetch per round, and the server must count the parked callers as
// deduplicated.
func TestLoadLeaseDedupAcrossClients(t *testing.T) {
	srv, _ := startServer(t,
		stemcache.Config{Capacity: 1 << 12, Seed: 1},
		server.Config{LeaseWait: 10 * time.Second})

	var originCalls atomic.Int64
	origin := func(ctx context.Context, key string) ([]byte, error) {
		originCalls.Add(1)
		time.Sleep(50 * time.Millisecond) // slow origin: let the herd pile up
		return []byte("value:" + key), nil
	}

	const clients, perClient, rounds = 4, 16, 5
	cls := make([]*client.Client, clients)
	for ci := range cls {
		cls[ci] = newClient(t, srv.Addr())
	}
	for r := 0; r < rounds; r++ {
		key := fmt.Sprintf("hot:%d", r)
		var wg sync.WaitGroup
		errs := make(chan error, clients*perClient)
		for _, cl := range cls {
			for g := 0; g < perClient; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					v, err := cl.GetOrLoad(context.Background(), key, origin)
					if err != nil {
						errs <- err
						return
					}
					if string(v) != "value:"+key {
						errs <- fmt.Errorf("GetOrLoad(%s) = %q; want value:%s", key, v, key)
					}
				}()
			}
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if n := originCalls.Load(); n != int64(r+1) {
			t.Fatalf("after round %d: origin calls = %d; want %d (the lease must deduplicate each herd to one fetch)", r, n, r+1)
		}
	}
	snap := wireStats(t, cls[0])
	t.Logf("%d origin calls over %d herds of %d; STATS: %d loads, %d deduplicated", originCalls.Load(), rounds, clients*perClient, snap.Loads, snap.LoadDedup)
	if snap.LoadDedup == 0 {
		t.Fatalf("STATS LoadDedup = 0 after %d herds (%d loads); want the parked callers counted", rounds, snap.Loads)
	}
}

func TestLoadNegativeCachingOverTheWire(t *testing.T) {
	srv, _ := startServer(t,
		stemcache.Config{Capacity: 1 << 12, Seed: 1, NegativeTTL: time.Minute},
		server.Config{})
	cl := newClient(t, srv.Addr())

	var originCalls atomic.Int64
	origin := func(ctx context.Context, key string) ([]byte, error) {
		originCalls.Add(1)
		return nil, fmt.Errorf("origin: %w", client.ErrNotFound)
	}
	for i := 0; i < 3; i++ {
		if _, err := cl.GetOrLoad(context.Background(), "ghost", origin); !errors.Is(err, client.ErrNotFound) {
			t.Fatalf("call %d: err = %v; want ErrNotFound", i, err)
		}
	}
	if n := originCalls.Load(); n != 1 {
		t.Fatalf("origin calls = %d; want 1 (absence cached for NegativeTTL)", n)
	}
}

// TestLoadStaleWhileRevalidateOverTheWire: once a key is past its
// freshness deadline, W concurrent readers on W separate clients are all
// answered from the stale value while the origin is gated shut. At most one
// origin call, the elected background refresh, may be parked on the gate;
// any other would be a foreground fetch, which would also leave its reader
// blocked. Opening the gate lets the refresh install the new value.
func TestLoadStaleWhileRevalidateOverTheWire(t *testing.T) {
	srv, _ := startServer(t,
		stemcache.Config{Capacity: 1 << 12, Seed: 1, LoadTTL: 40 * time.Millisecond, StaleTTL: time.Minute},
		server.Config{})
	const readers = 64
	cls := make([]*client.Client, readers)
	for i := range cls {
		cls[i] = newClient(t, srv.Addr())
	}

	gate := make(chan struct{})
	openGate := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(openGate) // registered after the clients: runs before their Close waits on the refresh
	var phase, gated atomic.Int32
	origin := func(ctx context.Context, key string) ([]byte, error) {
		if phase.Add(1) == 1 {
			return []byte("v1"), nil
		}
		gated.Add(1)
		<-gate
		return []byte("v2"), nil
	}
	if v, err := cls[0].GetOrLoad(context.Background(), "k", origin); err != nil || string(v) != "v1" {
		t.Fatalf("initial load = %q, %v; want v1, nil", v, err)
	}
	time.Sleep(60 * time.Millisecond) // cross the freshness deadline

	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for _, cl := range cls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, err := cl.GetOrLoad(context.Background(), "k", origin); err != nil || string(v) != "v1" {
				errs <- fmt.Errorf("stale read = %q, %v; want v1, nil", v, err)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		openGate()
		t.Fatalf("stale readers still blocked after 10s with %d origin calls parked on the gate: a foreground path fetched", gated.Load())
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := gated.Load(); n > 1 {
		t.Fatalf("%d origin calls while %d readers were served stale; want at most the one background refresh", n, readers)
	}
	openGate()
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, err := cls[0].GetOrLoad(context.Background(), "k", origin)
		if err != nil {
			t.Fatal(err)
		}
		if string(v) == "v2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background refresh never installed v2")
		}
		time.Sleep(5 * time.Millisecond)
	}

	snap := wireStats(t, cls[0])
	t.Logf("%d readers served stale with the origin gated; StaleServed %d", readers, snap.Cache.StaleServed)
	if snap.Cache.StaleServed < readers {
		t.Fatalf("StaleServed = %d; want >= %d after serving every reader a stale value", snap.Cache.StaleServed, readers)
	}
}

// wireStats fetches and decodes the server's STATS document.
func wireStats(t *testing.T, cl *client.Client) server.StatsSnapshot {
	t.Helper()
	var snap server.StatsSnapshot
	raw, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestLoadLeaseBreakOnDeadLeader: a follower parked behind a wedged
// leaseholder breaks the lease after LeaseWait and fills the key itself. The
// subtest runs in the default (empty) namespace, the only one the server
// accepts.
func TestLoadLeaseBreakOnDeadLeader(t *testing.T) {
	t.Run(fmt.Sprintf("ns=%q", ""), func(t *testing.T) {
		srv, _ := startServer(t,
			stemcache.Config{Capacity: 1 << 12, Seed: 1},
			server.Config{LeaseWait: 80 * time.Millisecond})

		stuck := make(chan struct{})
		release := sync.OnceFunc(func() { close(stuck) })
		stuckOrigin := func(ctx context.Context, key string) ([]byte, error) {
			<-stuck
			return []byte("late"), nil
		}
		clA := newClient(t, srv.Addr())
		aDone := make(chan struct{})
		go func() {
			defer close(aDone)
			// A wins the lease, then wedges inside its origin: the
			// leaseholder is effectively dead.
			if v, err := clA.GetOrLoad(context.Background(), "k", stuckOrigin); err != nil || string(v) != "late" {
				t.Errorf("stuck leader GetOrLoad = %q, %v; want late, nil", v, err)
			}
		}()
		t.Cleanup(func() { release(); <-aDone }) // before clA closes, on any exit
		time.Sleep(20 * time.Millisecond)        // let A take the lease

		var bCalls atomic.Int64
		goodOrigin := func(ctx context.Context, key string) ([]byte, error) {
			bCalls.Add(1)
			return []byte("fresh"), nil
		}
		clB := newClient(t, srv.Addr())
		t0 := time.Now()
		v, err := clB.GetOrLoad(context.Background(), "k", goodOrigin)
		if err != nil || string(v) != "fresh" {
			t.Fatalf("follower GetOrLoad = %q, %v; want fresh, nil", v, err)
		}
		if waited := time.Since(t0); waited < 60*time.Millisecond {
			t.Fatalf("follower answered after %v; it should have parked ~LeaseWait before breaking the lease", waited)
		}
		if n := bCalls.Load(); n != 1 {
			t.Fatalf("follower origin calls = %d; want 1", n)
		}
		// The broken leader eventually finishes; its fill is refused
		// (token mismatch) and must not clobber the successor's value.
		release()
		<-aDone
		if v, err := clB.GetOrLoad(context.Background(), "k", goodOrigin); err != nil || string(v) != "fresh" {
			t.Fatalf("after late fill: GetOrLoad = %q, %v; want fresh, nil (stale leader must not clobber)", v, err)
		}
	})
}
