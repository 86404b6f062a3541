package stemcache

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/tenant"
	"repro/internal/workloads"
)

func tenantCache(t *testing.T, cfg Config, policy TenantPolicy, names ...tenant.Config) (*Cache[string, int], *tenant.Registry) {
	t.Helper()
	reg := tenant.NewRegistry(tenant.Config{})
	for _, tc := range names {
		if _, err := reg.Register(tc); err != nil {
			t.Fatal(err)
		}
	}
	cfg.Tenants = reg
	cfg.TenantPolicy = policy
	c, err := New[string, int](cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, reg
}

func TestTenantConfigValidate(t *testing.T) {
	if err := (Config{TenantPolicy: TenantStatic}).Validate(); err == nil {
		t.Fatal("enforcing policy without a registry validated")
	}
	if err := (Config{TenantPolicy: 99}).Validate(); err == nil {
		t.Fatal("unknown policy validated")
	}
	if err := (Config{TenantPolicy: TenantObserve}).Validate(); err != nil {
		t.Fatalf("observe policy without registry rejected: %v", err)
	}
}

func TestTenantNamespacesAreDisjoint(t *testing.T) {
	c, reg := tenantCache(t, Config{Capacity: 1 << 10}, TenantObserve,
		tenant.Config{Name: "a"}, tenant.Config{Name: "b"})
	a := c.Tenant(reg.Resolve("a"))
	b := c.Tenant(reg.Resolve("b"))

	a.Set("k", 1)
	b.Set("k", 2)
	if v, ok := a.Get("k"); !ok || v != 1 {
		t.Fatalf("tenant a sees (%d, %v), want (1, true)", v, ok)
	}
	if v, ok := b.Get("k"); !ok || v != 2 {
		t.Fatalf("tenant b sees (%d, %v), want (2, true)", v, ok)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("default tenant sees a namespaced key")
	}
	if !a.Delete("k") {
		t.Fatal("tenant a could not delete its key")
	}
	if _, ok := a.Get("k"); ok {
		t.Fatal("tenant a still sees its deleted key")
	}
	if v, ok := b.Get("k"); !ok || v != 2 {
		t.Fatalf("tenant b lost its key to a's delete: (%d, %v)", v, ok)
	}
}

// TestTenantDefaultMatchesUntenanted pins the salt-zero contract: a cache
// with a registry, driven entirely through the default tenant, is
// bit-identical (Stats-wise) to the same cache with no registry at all.
func TestTenantDefaultMatchesUntenanted(t *testing.T) {
	cfg := Config{Capacity: 512, Shards: 2, Ways: 4, Seed: 7}
	plain := mustNew[string, int](cfg)
	tenanted, _ := tenantCache(t, cfg, TenantObserve)

	for i := 0; i < 20_000; i++ {
		k := fmt.Sprintf("key-%d", i%1500)
		if _, ok := plain.Get(k); !ok {
			plain.Set(k, i)
		}
		if _, ok := tenanted.Tenant(tenant.DefaultID).Get(k); !ok {
			tenanted.Tenant(tenant.DefaultID).Set(k, i)
		}
	}
	if plain.Stats() != tenanted.Stats() {
		t.Fatalf("default-tenant run diverged from untenanted run:\nplain    %+v\ntenanted %+v",
			plain.Stats(), tenanted.Stats())
	}
}

func TestTenantAccounting(t *testing.T) {
	c, reg := tenantCache(t, Config{Capacity: 1 << 10}, TenantObserve, tenant.Config{Name: "web"})
	web := c.Tenant(reg.Resolve("web"))

	web.Set("x", 1)
	web.Get("x")     // hit
	web.Get("ghost") // miss
	c.Get("x")       // default tenant: miss (different namespace)

	st := c.TenantStats()
	if len(st) != 2 {
		t.Fatalf("TenantStats has %d rows, want 2", len(st))
	}
	w := st[1]
	if w.Name != "web" || w.Gets != 2 || w.Hits != 1 || w.Misses != 1 || w.Live != 1 {
		t.Fatalf("web stats = %+v", w)
	}
	d := st[0]
	if d.Gets != 1 || d.Hits != 0 || d.Misses != 1 || d.Live != 0 {
		t.Fatalf("default stats = %+v", d)
	}
	if hr := w.HitRate(); hr != 0.5 {
		t.Fatalf("web hit rate = %v, want 0.5", hr)
	}

	if !web.Delete("x") {
		t.Fatal("delete failed")
	}
	if live := c.TenantStats()[1].Live; live != 0 {
		t.Fatalf("web live = %d after delete, want 0", live)
	}
}

// TestTenantStatsSumToStats: the tenant view and the cache view are sums over
// the same shard rows, so under concurrent load from three tenants — with
// arbitration epochs and both views being read meanwhile — they still add up
// exactly, and every tenant's Gets split into its Hits and Misses.
func TestTenantStatsSumToStats(t *testing.T) {
	c, reg := tenantCache(t, Config{Capacity: 512, Shards: 4, Ways: 4, Seed: 5}, TenantArbitrated,
		tenant.Config{Name: "a"}, tenant.Config{Name: "b"})
	views := []TenantView[string, int]{c.Tenant(tenant.DefaultID), c.Tenant(reg.Resolve("a")), c.Tenant(reg.Resolve("b"))}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v := views[g%len(views)]
			for i := 0; i < 10000; i++ {
				k := fmt.Sprintf("k%d", (i*(g+3))%(400*(1+g%3)))
				if _, ok := v.Get(k); !ok {
					v.Set(k, i)
				}
				if i%1000 == 0 {
					c.ArbitrateTenants()
					c.TenantStats()
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()

	st := c.Stats()
	var sum TenantStats
	for _, ts := range c.TenantStats() {
		if ts.Gets != 20000 || ts.Gets != ts.Hits+ts.Misses {
			t.Errorf("tenant %q: Gets %d, Hits %d + Misses %d; want 20000 split exactly", ts.Name, ts.Gets, ts.Hits, ts.Misses)
		}
		sum.Gets += ts.Gets
		sum.Hits += ts.Hits
		sum.Misses += ts.Misses
		sum.ShadowHits += ts.ShadowHits
	}
	if sum.Gets != st.Gets || sum.Hits != st.Hits || sum.Misses != st.Misses || sum.ShadowHits != st.ShadowHits {
		t.Fatalf("tenants sum to %+v, cache stats say %+v", sum, st)
	}
	if st.Hits == 0 || st.ShadowHits == 0 {
		t.Fatalf("workload left counters idle: %+v", st)
	}
}

// TestTenantLiveTracksEvictions drives one tenant far past capacity and
// checks its live gauge matches the cache's true residency — insert, evict
// and expiry paths all debit the owner.
func TestTenantLiveTracksEvictions(t *testing.T) {
	c, reg := tenantCache(t, Config{Capacity: 256, Shards: 2, Ways: 4}, TenantObserve,
		tenant.Config{Name: "flood"})
	fl := c.Tenant(reg.Resolve("flood"))
	for i := 0; i < 4096; i++ {
		fl.Set(fmt.Sprintf("k%d", i), i)
	}
	live := c.TenantStats()[1].Live
	if got := c.Len(); live != got {
		t.Fatalf("tenant live %d != cache len %d (single-tenant workload)", live, got)
	}
	if live <= 0 || live > c.Capacity() {
		t.Fatalf("tenant live %d outside (0, %d]", live, c.Capacity())
	}
}

// TestTenantArbitrationMovesCapacity reproduces the paper's giver/taker
// transfer at tenant granularity: a hot tenant re-missing on recently
// evicted keys (shadow demand) takes capacity from an idle tenant, and the
// idle tenant's target never falls below its MinReserve.
func TestTenantArbitrationMovesCapacity(t *testing.T) {
	reserve := 64
	c, reg := tenantCache(t, Config{Capacity: 1 << 10, Shards: 2, Ways: 8}, TenantArbitrated,
		tenant.Config{Name: "hot"},
		tenant.Config{Name: "idle", MinReserve: reserve})
	hot := c.Tenant(reg.Resolve("hot"))
	idle := c.Tenant(reg.Resolve("idle"))

	// Seed the idle tenant with a small working set it keeps re-hitting
	// (no shadow demand), then hammer the hot tenant with a working set
	// larger than its static share so its misses hit the shadow directory.
	for i := 0; i < 128; i++ {
		idle.Set(fmt.Sprintf("i%d", i), i)
	}
	capacity := c.Capacity()
	hotSet := capacity * 3 / 4

	var hotTargets []int
	for epoch := 0; epoch < 30; epoch++ {
		for i := 0; i < 4*hotSet; i++ {
			k := fmt.Sprintf("h%d", i%hotSet)
			if _, ok := hot.Get(k); !ok {
				hot.Set(k, i)
			}
		}
		for i := 0; i < 256; i++ {
			idle.Get(fmt.Sprintf("i%d", i%128))
		}
		c.ArbitrateTenants()
		st := c.TenantStats()
		hotTargets = append(hotTargets, st[1].Target)
		if st[2].Target < reserve {
			t.Fatalf("epoch %d: idle target %d fell below reserve %d", epoch, st[2].Target, reserve)
		}
		sum := 0
		for _, s := range st {
			sum += s.Target
		}
		if sum != capacity {
			t.Fatalf("epoch %d: targets sum to %d, want %d", epoch, sum, capacity)
		}
	}
	first, last := hotTargets[0], hotTargets[len(hotTargets)-1]
	if last <= first {
		t.Fatalf("hot tenant target did not grow under shadow demand: %d -> %d (%v)", first, last, hotTargets)
	}
}

// TestTenantArbitrationAB is the three-policy A/B of tenant capacity
// arbitration (DESIGN.md §15.3). Three namespaces with mismatched demand
// share one cache: hot (zipf over a working set larger than its fair share,
// the taker), scan (a sweep over twice the capacity, the giver) and quiet (a
// tiny working set behind a cap/16 reserve). One interleaved cache-aside
// stream, identical for every policy, replays against a fresh cache per
// policy with an arbitration epoch every 4096 operations, so every count is
// deterministic. Arbitration must beat the static partition on aggregate hit
// rate without giving up the fairness the free-for-all (observe) loses,
// while conserving capacity and honouring quiet's reserve. The row at the
// default size also pins the digits of EXPERIMENTS.md's tenant table, which
// `go test -run TestTenantArbitrationAB -v ./internal/stemcache` regenerates.
func TestTenantArbitrationAB(t *testing.T) {
	const seed, epochOps = 0x57E4, 4096
	policies := []TenantPolicy{TenantArbitrated, TenantStatic, TenantObserve}
	for _, size := range []struct {
		ops, capacity, valueSize int
		// table is EXPERIMENTS.md's row per policy: aggregate, Jain, then
		// the hot, scan and quiet hit rates, each printed with %.3f.
		table [3]string
	}{
		{ops: 60_000, capacity: 2048, valueSize: 32},
		{ops: 400_000, capacity: 8192, valueSize: 128, table: [3]string{
			"0.565 0.680 0.829 0.018 0.894",
			"0.509 0.686 0.735 0.033 0.909",
			"0.525 0.671 0.779 0.006 0.726",
		}},
	} {
		t.Run(fmt.Sprintf("ops=%d,capacity=%d", size.ops, size.capacity), func(t *testing.T) {
			if testing.Short() && size.table[0] != "" {
				t.Skip("1.2M operations")
			}
			var aggregate, jain [3]float64
			var rows [3][]TenantStats
			for p, policy := range policies {
				aggregate[p], rows[p] = replayTenantMix(t, policy, size.ops, size.capacity, size.valueSize, seed, epochOps)
				var rates []float64
				for _, ts := range rows[p] {
					if ts.Gets > 0 {
						rates = append(rates, ts.HitRate())
						t.Logf("%-10s %-5s %.4f hit  %d gets  %d shadow hits  %d live / %d target",
							policy, ts.Name, ts.HitRate(), ts.Gets, ts.ShadowHits, ts.Live, ts.Target)
					}
				}
				jain[p] = tenant.Jain(rates)
				t.Logf("%-10s aggregate %.4f  jain %.4f", policy, aggregate[p], jain[p])
				if size.table[0] == "" {
					continue
				}
				got := fmt.Sprintf("%.3f %.3f", aggregate[p], jain[p])
				for _, ts := range rows[p][1:] {
					got += fmt.Sprintf(" %.3f", ts.HitRate())
				}
				if got != size.table[p] {
					t.Errorf("%s: table row %q, EXPERIMENTS.md prints %q", policy, got, size.table[p])
				}
			}
			arb, static, observe := rows[0], rows[1], rows[2]
			if d := aggregate[0] - aggregate[1]; d < 0.02 {
				t.Errorf("arbitrated aggregate hit rate %.4f is %.4f above static's %.4f, want >= 0.02", aggregate[0], d, aggregate[1])
			}
			if d := jain[0] - jain[2]; d < 0.005 {
				t.Errorf("arbitrated Jain %.4f is %.4f above observe's %.4f, want >= 0.005", jain[0], d, jain[2])
			}
			sum, moved := 0, 0
			for i, ts := range arb {
				sum += ts.Target
				if ts.Target != static[i].Target {
					moved++
				}
				if ts.Gets != static[i].Gets || ts.Gets != observe[i].Gets {
					t.Errorf("tenant %q saw %d/%d/%d gets under the three policies; the stream must be identical",
						ts.Name, ts.Gets, static[i].Gets, observe[i].Gets)
				}
			}
			if sum != size.capacity {
				t.Errorf("arbitrated targets sum to %d, want the capacity %d", sum, size.capacity)
			}
			if moved == 0 {
				t.Error("arbitration left every target on the static split")
			}
			if q := arb[3]; q.Name != "quiet" || q.Target < size.capacity/16 {
				t.Errorf("tenant %q ended with target %d, below its reserve %d", q.Name, q.Target, size.capacity/16)
			}
		})
	}
}

// replayTenantMix runs the A/B's interleaved stream through one fresh cache
// under policy and returns the aggregate hit rate and the per-tenant rows
// (id order; row 0 is the idle default namespace).
func replayTenantMix(t *testing.T, policy TenantPolicy, ops, capacity, valueSize int, seed uint64, epochOps int) (float64, []TenantStats) {
	t.Helper()
	// The default tenant's token weight rounds its share toward nothing:
	// every operation here is namespaced.
	reg := tenant.NewRegistry(tenant.Config{Weight: 0.1})
	for _, tc := range []tenant.Config{
		{Name: "hot", Weight: 1},
		{Name: "scan", Weight: 1},
		{Name: "quiet", Weight: 1, MinReserve: capacity / 16},
	} {
		if _, err := reg.Register(tc); err != nil {
			t.Fatal(err)
		}
	}
	c, err := New[string, []byte](Config{Capacity: capacity, Seed: seed, Tenants: reg, TenantPolicy: policy})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	next, err := workloads.NewTenantKeyStream([]workloads.TenantStream{
		{Name: "hot", Dist: "zipf", Capacity: capacity / 2, Skew: 1.1, Weight: 8, Seed: seed + 1},
		{Name: "scan", Dist: "scan", Capacity: capacity * 2, Weight: 4, Seed: seed + 2},
		{Name: "quiet", Dist: "zipf", Capacity: capacity / 64, Skew: 1.2, Weight: 0.25, Seed: seed + 3},
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	views := map[string]TenantView[string, []byte]{}
	for _, name := range []string{"hot", "scan", "quiet"} {
		views[name] = c.Tenant(reg.Resolve(name))
	}
	value := make([]byte, valueSize)
	// Epoch 0 before any traffic rebases every target to the static
	// weight-proportional split, so the static partition binds from the
	// first insert and arbitration starts from the split it then moves.
	c.ArbitrateTenants()
	for i := 1; i <= ops; i++ {
		ns, key := next()
		if _, ok := views[ns].Get(key); !ok {
			views[ns].Set(key, value)
		}
		if i%epochOps == 0 {
			c.ArbitrateTenants()
		}
	}
	return c.Stats().HitRate(), c.TenantStats()
}

// TestTenantStaticEnforcement pins the insert-time quota: under TenantStatic
// a tenant flooding the cache recycles its own entries once at target, so a
// small co-tenant's resident set survives the flood.
func TestTenantStaticEnforcement(t *testing.T) {
	c, reg := tenantCache(t, Config{Capacity: 512, Shards: 1, Ways: 8}, TenantStatic,
		tenant.Config{Name: "small", MinReserve: 32, Weight: 1},
		tenant.Config{Name: "flood", Weight: 1})
	small := c.Tenant(reg.Resolve("small"))
	flood := c.Tenant(reg.Resolve("flood"))

	// Establish targets for the current population, then the small set.
	c.ArbitrateTenants()
	for i := 0; i < 32; i++ {
		small.Set(fmt.Sprintf("s%d", i), i)
	}
	before := c.TenantStats()[1].Live

	for i := 0; i < 8192; i++ {
		flood.Set(fmt.Sprintf("f%d", i), i)
	}
	st := c.TenantStats()
	if st[1].Live < before/2 {
		t.Fatalf("small tenant shrank from %d to %d under a quota-bounded flood", before, st[1].Live)
	}
	// The flooder stays in the neighborhood of its target: it may exceed it
	// only where its sets hold no recyclable entry of its own.
	if st[2].Live > st[2].Target*3/2 {
		t.Fatalf("flood tenant live %d far exceeds its target %d", st[2].Live, st[2].Target)
	}
}

func TestTenantViewFoldsOutOfRange(t *testing.T) {
	c, _ := tenantCache(t, Config{Capacity: 256}, TenantObserve)
	if id := c.Tenant(-1).ID(); id != tenant.DefaultID {
		t.Fatalf("Tenant(-1) scoped to %d", id)
	}
	if id := c.Tenant(tenant.MaxTenants).ID(); id != tenant.DefaultID {
		t.Fatalf("Tenant(MaxTenants) scoped to %d", id)
	}
	plain := mustNew[string, int](Config{Capacity: 256})
	if id := plain.Tenant(3).ID(); id != tenant.DefaultID {
		t.Fatalf("view on an untenanted cache scoped to %d", id)
	}
	if plain.TenantStats() != nil || plain.TenantRegistry() != nil || plain.ArbitrateTenants() != nil {
		t.Fatal("untenanted cache reports tenant state")
	}
}
