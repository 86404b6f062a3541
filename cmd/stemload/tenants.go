package main

// The multi-tenant capacity-arbitration scenario (-scenario tenants): the STEM
// giver/taker idea lifted to tenant granularity, measured end to end. Three
// namespaces with deliberately mismatched demand share one self-hosted
// server:
//
//   - hot:   zipf-skewed traffic whose working set is larger than its fair
//     share — shadow-hit demand makes it the taker.
//   - scan:  a sweep wider than anything the cache could keep — near-zero
//     shadow-hit demand makes it the giver.
//   - quiet: a small, low-traffic working set behind a min-reserve — the
//     tenant a free-for-all would evict.
//
// The identical interleaved key stream (workloads.NewTenantKeyStream is
// deterministic and partition-stable) replays against three fresh servers,
// one per capacity policy — arbitrated, static partition, observe
// (free-for-all) — with arbitration epochs driven by operation count so a
// run is reproducible. Per policy the scenario reports aggregate server hit
// rate, per-tenant hit rates, and Jain fairness over the active tenants; the
// paper-shaped claim is
//
//	aggregate(arbitrated) >= aggregate(static) + 0.02   // slack goes to the taker
//	jain(arbitrated)      >= jain(observe) + 0.005      // the reserve holds
//
// i.e. arbitration beats the static partition on throughput without giving
// up the fairness a free-for-all loses. The margins sit well inside the
// +0.05..0.065 hit-rate and +0.008..0.017 Jain deltas the scenario measures
// across seeds and sizes.

import (
	"fmt"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/stemcache"
	"repro/internal/tenant"
	"repro/internal/workloads"
)

// tenantEpochOps is the arbitration cadence: one ArbitrateTenants epoch per
// this many operations. Op-driven epochs keep the run deterministic — wall
// time never decides when capacity moves.
const tenantEpochOps = 4096

// tenantPolicyResult is one policy's measured outcome.
type tenantPolicyResult struct {
	// Policy is the capacity-management mode: "arbitrated", "static" or
	// "observe" (free-for-all).
	Policy string `json:"policy"`
	// AggregateHitRate is the server's overall Gets-hit fraction from STATS.
	AggregateHitRate float64 `json:"aggregate_hit_rate"`
	// Jain is Jain's fairness index over the active tenants' hit rates
	// (1 = perfectly even, 1/n = one tenant has everything).
	Jain    float64 `json:"jain_fairness"`
	Seconds float64 `json:"seconds"`
	// Tenants holds every tenant's accounting row from the server's STATS
	// document, id order (row 0 is the idle default namespace).
	Tenants []stemcache.TenantStats `json:"tenants"`
}

// tenantRegistry builds the scenario's tenant policy table. The default
// tenant gets a token weight: every request in this scenario is namespaced,
// so its share should round toward nothing instead of idling a quarter of
// the cache. quiet's min-reserve is the receiving constraint under test —
// capacity arbitration may never shrink it below cap/16.
func tenantRegistry(capacity int) (*tenant.Registry, error) {
	reg := tenant.NewRegistry(tenant.Config{Weight: 0.1})
	for _, tc := range []tenant.Config{
		{Name: "hot", Weight: 1},
		{Name: "scan", Weight: 1},
		{Name: "quiet", Weight: 1, MinReserve: capacity / 16},
	} {
		if _, err := reg.Register(tc); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// tenantStreams is the scenario's workload: hot dominates traffic and wants
// more than its share, scan sweeps uselessly, quiet barely speaks.
func tenantStreams(cfg loadConfig) []workloads.TenantStream {
	return []workloads.TenantStream{
		{Name: "hot", Dist: "zipf", Capacity: cfg.Capacity / 2, Skew: 1.1, Weight: 8, Seed: cfg.Seed + 1},
		{Name: "scan", Dist: "scan", Capacity: cfg.Capacity * 2, Weight: 4, Seed: cfg.Seed + 2},
		{Name: "quiet", Dist: "zipf", Capacity: max(cfg.Capacity/64, 1), Skew: 1.2, Weight: 0.25, Seed: cfg.Seed + 3},
	}
}

// tenantScenario replays the identical workload (cfg.Ops operations) against
// one fresh server per policy, sequentially so the policies never contend for
// the machine.
func tenantScenario(cfg loadConfig) (any, []claim, error) {
	if cfg.Capacity < 64 {
		return nil, nil, fmt.Errorf("-capacity %d is below the scenario's minimum 64", cfg.Capacity)
	}
	var results []tenantPolicyResult
	for _, p := range []stemcache.TenantPolicy{
		stemcache.TenantArbitrated, stemcache.TenantStatic, stemcache.TenantObserve,
	} {
		r, err := tenantPolicyRun(p, cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", p, err)
		}
		fmt.Printf("policy        %s\n", r.Policy)
		fmt.Printf("aggregate     %.4f server hit rate  jain %.4f  (%.2fs)\n",
			r.AggregateHitRate, r.Jain, r.Seconds)
		for _, ts := range r.Tenants {
			if ts.Gets == 0 {
				continue
			}
			fmt.Printf("  %-8s    %.4f hit  %d gets  %d shadow hits  %d live / %d target\n",
				ts.Name, ts.HitRate(), ts.Gets, ts.ShadowHits, ts.Live, ts.Target)
		}
		fmt.Println()
		results = append(results, r)
	}
	arb, static, observe := results[0], results[1], results[2]

	// The mechanism, not just the outcome: arbitration moved capacity (some
	// target left the static split), targets still sum to the capacity
	// (conservation), quiet kept its min-reserve, and every policy saw the
	// identical stream (per-tenant get counts match).
	targetSum, moved, quietTarget, diverged := 0, 0, 0, 0
	for i, ts := range arb.Tenants {
		targetSum += ts.Target
		if ts.Target != static.Tenants[i].Target {
			moved++
		}
		if ts.Name == "quiet" {
			quietTarget = ts.Target
		}
		if ts.Gets != static.Tenants[i].Gets || ts.Gets != observe.Tenants[i].Gets {
			diverged++
		}
	}
	return results, []claim{
		atLeast("arbitrated_minus_static_hit_rate", arb.AggregateHitRate-static.AggregateHitRate, 0.02),
		atLeast("arbitrated_minus_observe_jain", arb.Jain-observe.Jain, 0.005),
		exactly("arbitrated_target_sum", float64(targetSum), float64(cfg.Capacity)),
		atLeast("quiet_target", float64(quietTarget), float64(cfg.Capacity/16)),
		atLeast("targets_moved_off_static_split", float64(moved), 1),
		exactly("tenants_with_diverged_streams", float64(diverged), 0),
	}, nil
}

// tenantPolicyRun drives the full workload against a fresh self-hosted
// server under one capacity policy. One sequential driver and one client per
// namespace: the interleaved stream already models concurrency of tenants,
// and a single in-flight request keeps the replay exactly reproducible.
func tenantPolicyRun(policy stemcache.TenantPolicy, cfg loadConfig) (tenantPolicyResult, error) {
	reg, err := tenantRegistry(cfg.Capacity)
	if err != nil {
		return tenantPolicyResult{}, err
	}
	node, err := cluster.StartNode(0, cluster.NodeConfig{Cache: stemcache.Config{
		Capacity:     cfg.Capacity,
		Seed:         cfg.Seed,
		Tenants:      reg,
		TenantPolicy: policy,
	}})
	if err != nil {
		return tenantPolicyResult{}, err
	}
	defer node.Close()
	cache := node.Cache()

	streams := tenantStreams(cfg)
	next, err := workloads.NewTenantKeyStream(streams, cfg.Seed)
	if err != nil {
		return tenantPolicyResult{}, err
	}
	clients := make(map[string]*client.Client, len(streams))
	for _, ts := range streams {
		cl, err := client.New(client.Config{Addr: node.Addr(), Namespace: ts.Name, PoolSize: 1})
		if err != nil {
			return tenantPolicyResult{}, err
		}
		defer cl.Close()
		clients[ts.Name] = cl
	}

	// Epoch 0 before any traffic rebases every tenant's target to the static
	// weight-proportional split, so the static partition binds from the first
	// insert and arbitration starts from the same split it will then move.
	cache.ArbitrateTenants()

	value := missValue(cfg.ValueSize)
	t0 := wallClock()
	for i := 0; i < cfg.Ops; i++ {
		ns, key := next()
		cl := clients[ns]
		_, found, err := cl.Get(key)
		if err != nil {
			return tenantPolicyResult{}, err
		}
		if !found {
			if err := cl.Set(key, value); err != nil {
				return tenantPolicyResult{}, err
			}
		}
		if (i+1)%tenantEpochOps == 0 {
			cache.ArbitrateTenants()
		}
	}
	seconds := wallClock().Sub(t0).Seconds()

	snap, err := serverStats(clients[streams[0].Name])
	if err != nil {
		return tenantPolicyResult{}, err
	}
	res := tenantPolicyResult{
		Policy:           policy.String(),
		AggregateHitRate: snap.HitRate,
		Jain:             tenantJain(snap.Tenants),
		Seconds:          seconds,
		Tenants:          snap.Tenants,
	}
	return res, nil
}

// tenantJain is Jain's fairness index over the hit rates of the tenants that
// saw traffic (idle tenants have no hit rate to be fair about).
func tenantJain(rows []stemcache.TenantStats) float64 {
	var rates []float64
	for _, ts := range rows {
		if ts.Gets > 0 {
			rates = append(rates, ts.HitRate())
		}
	}
	return tenant.Jain(rates)
}
