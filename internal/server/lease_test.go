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

	// Four client processes' worth of connections, sixteen goroutines each,
	// all slamming one cold key.
	const clients, perClient = 4, 16
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for ci := 0; ci < clients; ci++ {
		cl := newClient(t, srv.Addr())
		for g := 0; g < perClient; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				v, err := cl.GetOrLoad(context.Background(), "hot", origin)
				if err != nil {
					errs <- err
					return
				}
				if string(v) != "value:hot" {
					errs <- fmt.Errorf("GetOrLoad = %q; want value:hot", v)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := originCalls.Load(); n != 1 {
		t.Fatalf("origin calls = %d; want 1 (the lease must deduplicate the herd)", n)
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

func TestLoadStaleWhileRevalidateOverTheWire(t *testing.T) {
	srv, _ := startServer(t,
		stemcache.Config{Capacity: 1 << 12, Seed: 1, LoadTTL: 40 * time.Millisecond, StaleTTL: time.Minute},
		server.Config{})
	cl := newClient(t, srv.Addr())

	gate := make(chan struct{})
	var phase atomic.Int32
	origin := func(ctx context.Context, key string) ([]byte, error) {
		if phase.Add(1) == 1 {
			return []byte("v1"), nil
		}
		<-gate
		return []byte("v2"), nil
	}
	if v, err := cl.GetOrLoad(context.Background(), "k", origin); err != nil || string(v) != "v1" {
		t.Fatalf("initial load = %q, %v; want v1, nil", v, err)
	}
	time.Sleep(60 * time.Millisecond) // cross the freshness deadline

	// With the refresh origin blocked on gate, every stale serve returning
	// v1 promptly proves the foreground path never touched the origin.
	for i := 0; i < 4; i++ {
		if v, err := cl.GetOrLoad(context.Background(), "k", origin); err != nil || string(v) != "v1" {
			t.Fatalf("stale call %d = %q, %v; want v1, nil", i, v, err)
		}
	}
	close(gate)
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, err := cl.GetOrLoad(context.Background(), "k", origin)
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

	var snap server.StatsSnapshot
	raw, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Cache.StaleServed == 0 {
		t.Fatalf("StaleServed = 0; want > 0 after serving stale values")
	}
}

// TestLoadLeaseBreakOnDeadLeader: a follower parked behind a wedged
// leaseholder breaks the lease after LeaseWait and fills the key itself, in
// the default namespace and in a named one (whose lease-table key is
// namespace-qualified).
func TestLoadLeaseBreakOnDeadLeader(t *testing.T) {
	for _, ns := range []string{"", "t"} {
		t.Run(fmt.Sprintf("ns=%q", ns), func(t *testing.T) {
			srv, _ := startServer(t,
				stemcache.Config{Capacity: 1 << 12, Seed: 1},
				server.Config{LeaseWait: 80 * time.Millisecond})

			stuck := make(chan struct{})
			release := sync.OnceFunc(func() { close(stuck) })
			stuckOrigin := func(ctx context.Context, key string) ([]byte, error) {
				<-stuck
				return []byte("late"), nil
			}
			clA := nsClient(t, srv.Addr(), ns)
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
			clB := nsClient(t, srv.Addr(), ns)
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
}
