package server_test

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/stemcache"
	"repro/internal/tenant"
	"repro/internal/wire"
)

// tenantServer starts a server over a tenant-enabled cache and returns it
// with its cache; both are cleaned up with the test.
func tenantServer(t *testing.T, policy stemcache.TenantPolicy, scfg server.Config, tenants ...tenant.Config) (*server.Server, *stemcache.Cache[string, []byte]) {
	t.Helper()
	reg := tenant.NewRegistry(tenant.Config{})
	for _, tc := range tenants {
		if _, err := reg.Register(tc); err != nil {
			t.Fatal(err)
		}
	}
	cache, err := stemcache.New[string, []byte](stemcache.Config{
		Capacity:     1 << 10,
		Seed:         7,
		Tenants:      reg,
		TenantPolicy: policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cache.Close() })
	srv, err := server.New(cache, scfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, cache
}

func nsClient(t *testing.T, addr, namespace string) *client.Client {
	t.Helper()
	cl, err := client.New(client.Config{Addr: addr, Namespace: namespace})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestTenantIsolationOverWire pins the end-to-end namespace contract: the
// same key set through two namespaced clients holds two values, the default
// namespace sees neither, deletes stay inside their namespace, and the
// STATS document carries the per-tenant accounting rows.
func TestTenantIsolationOverWire(t *testing.T) {
	srv, _ := tenantServer(t, stemcache.TenantObserve, server.Config{},
		tenant.Config{Name: "web"}, tenant.Config{Name: "api"})
	web := nsClient(t, srv.Addr(), "web")
	api := nsClient(t, srv.Addr(), "api")
	def := nsClient(t, srv.Addr(), "")

	if err := web.Set("k", []byte("from-web")); err != nil {
		t.Fatal(err)
	}
	if err := api.Set("k", []byte("from-api")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := web.Get("k"); err != nil || !ok || string(v) != "from-web" {
		t.Fatalf("web Get = (%q, %v, %v)", v, ok, err)
	}
	if v, ok, err := api.Get("k"); err != nil || !ok || string(v) != "from-api" {
		t.Fatalf("api Get = (%q, %v, %v)", v, ok, err)
	}
	if _, ok, err := def.Get("k"); err != nil || ok {
		t.Fatalf("default namespace sees a tenant key (found=%v, err=%v)", ok, err)
	}
	if found, err := web.Del("k"); err != nil || !found {
		t.Fatalf("web Del = (%v, %v)", found, err)
	}
	if v, ok, err := api.Get("k"); err != nil || !ok || string(v) != "from-api" {
		t.Fatalf("api lost its key to web's delete: (%q, %v, %v)", v, ok, err)
	}

	// Batched ops carry the namespace too.
	if err := web.MSet([]wire.KV{{Key: "b1", Value: []byte("x")}, {Key: "b2", Value: []byte("y")}}); err != nil {
		t.Fatal(err)
	}
	if _, found, err := api.MGet([]string{"b1", "b2"}); err != nil {
		t.Fatal(err)
	} else if found[0] || found[1] {
		t.Fatalf("api MGet sees web's batch: %v", found)
	}

	raw, err := def.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var snap server.StatsSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("stats JSON: %v\n%s", err, raw)
	}
	if len(snap.Tenants) != 3 {
		t.Fatalf("stats carries %d tenant rows, want 3:\n%s", len(snap.Tenants), raw)
	}
	byName := map[string]stemcache.TenantStats{}
	for _, ts := range snap.Tenants {
		byName[ts.Name] = ts
	}
	if ts := byName["web"]; ts.Gets == 0 {
		t.Fatalf("web tenant row has no gets: %+v", ts)
	}
	if ts := byName["api"]; ts.Live != 1 {
		t.Fatalf("api tenant row live = %d, want 1 (its surviving key)", ts.Live)
	}
}

// TestTenantAutoRegisterOverWire: a namespace never registered server-side
// is auto-registered on first use with the registry's default policy.
func TestTenantAutoRegisterOverWire(t *testing.T) {
	srv, cache := tenantServer(t, stemcache.TenantObserve, server.Config{})
	cl := nsClient(t, srv.Addr(), "walk-in")
	if err := cl.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	reg := cache.TenantRegistry()
	id, ok := reg.Lookup("walk-in")
	if !ok || id == tenant.DefaultID {
		t.Fatalf("walk-in namespace not auto-registered (id=%d, ok=%v)", id, ok)
	}
	if v, found, err := cl.Get("k"); err != nil || !found || string(v) != "v" {
		t.Fatalf("walk-in Get = (%q, %v, %v)", v, found, err)
	}
}

// TestTenantLeaseScoping: read-through leases are per (namespace, key) — the
// same cold key loaded through two namespaces performs two origin fetches
// and caches two values, with no cross-namespace lease collision.
func TestTenantLeaseScoping(t *testing.T) {
	srv, _ := tenantServer(t, stemcache.TenantObserve, server.Config{},
		tenant.Config{Name: "a"}, tenant.Config{Name: "b"})
	a := nsClient(t, srv.Addr(), "a")
	b := nsClient(t, srv.Addr(), "b")

	var mu sync.Mutex
	calls := map[string]int{}
	origin := func(tag string) client.Origin {
		return func(ctx context.Context, key string) ([]byte, error) {
			mu.Lock()
			calls[tag]++
			mu.Unlock()
			return []byte(tag), nil
		}
	}
	ctx := context.Background()
	va, err := a.GetOrLoad(ctx, "cold", origin("a"))
	if err != nil || string(va) != "a" {
		t.Fatalf("a GetOrLoad = (%q, %v)", va, err)
	}
	vb, err := b.GetOrLoad(ctx, "cold", origin("b"))
	if err != nil || string(vb) != "b" {
		t.Fatalf("b GetOrLoad = (%q, %v)", vb, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls["a"] != 1 || calls["b"] != 1 {
		t.Fatalf("origin calls = %v, want one per namespace", calls)
	}
}

// TestTenantSlowRequestCarriesNamespace: EvSlowRequest events attribute the
// request to its tenant.
func TestTenantSlowRequestCarriesNamespace(t *testing.T) {
	var mu sync.Mutex
	var events []obs.Event
	srv, _ := tenantServer(t, stemcache.TenantObserve, server.Config{
		SlowRequest: time.Nanosecond, // everything is slow
		Events: obs.ObserverFunc(func(e obs.Event) {
			mu.Lock()
			events = append(events, e)
			mu.Unlock()
		}),
	}, tenant.Config{Name: "web"})
	cl := nsClient(t, srv.Addr(), "web")
	if err := cl.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// The event is emitted after the response is written, so the client can
	// be back before it lands.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		if len(events) > 0 {
			break // mu stays held for the checks below
		}
		mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("no slow-request events")
		}
		time.Sleep(time.Millisecond)
	}
	defer mu.Unlock()
	for _, e := range events {
		if e.Type != obs.EvSlowRequest || e.Tenant != "web" {
			t.Fatalf("event = %+v, want EvSlowRequest with tenant web", e)
		}
	}
}

// TestTenantNamespaceTooLongRejected: the client refuses to build with a
// namespace the wire format cannot carry.
func TestTenantNamespaceTooLongRejected(t *testing.T) {
	_, err := client.New(client.Config{Addr: "127.0.0.1:1", Namespace: strings.Repeat("n", wire.MaxNamespaceLen+1)})
	if err == nil {
		t.Fatal("oversized namespace accepted")
	}
}
