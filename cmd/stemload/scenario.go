package main

// The scenario table: every self-hosted experiment is one row, selected by
// -scenario NAME. A row hosts whatever servers it needs (single servers
// through cluster.StartNode, clusters through membership.Rig), measures, and
// returns its result document together with the claims that document must
// satisfy. The claims are stated here and nowhere else: `go test
// ./cmd/stemload` runs every row at test size and fails on any claim that
// does not hold, and the CLI exits non-zero on the same condition.

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/stemcache"
)

// claim is one pinned inequality, evaluated on the run that produced it.
type claim struct {
	Name     string  `json:"name"`
	Measured float64 `json:"measured"`
	// Op relates Measured to Bound: "<=", ">=" or "==".
	Op    string  `json:"op"`
	Bound float64 `json:"bound"`
	Holds bool    `json:"holds"`
}

func atMost(name string, measured, bound float64) claim {
	return claim{Name: name, Measured: measured, Op: "<=", Bound: bound, Holds: measured <= bound}
}

func atLeast(name string, measured, bound float64) claim {
	return claim{Name: name, Measured: measured, Op: ">=", Bound: bound, Holds: measured >= bound}
}

func exactly(name string, measured, bound float64) claim {
	return claim{Name: name, Measured: measured, Op: "==", Bound: bound, Holds: measured == bound}
}

// scenario is one row of the table (or, built by selectScenario, one
// external target wearing the same shape).
type scenario struct {
	name string
	// run measures at the size cfg gives and returns the result document
	// plus its claims. An error means the measurement itself broke; a claim
	// that does not hold is a result, not an error.
	run func(cfg loadConfig) (result any, claims []claim, err error)
}

var scenarios = []scenario{
	{"compare", compareScenario},
	{"latency", latencyScenario},
	{"herd", herdScenario},
	{"tenants", tenantScenario},
	{"failover", failoverScenario},
	{"scaleout", scaleoutScenario},
}

func scenarioNames() []string {
	names := make([]string, len(scenarios))
	for i, sc := range scenarios {
		names[i] = sc.name
	}
	return names
}

// selectScenario resolves the three target flags to the one thing to run:
// an external server (-addr), an external ring (-cluster), or a table row.
func selectScenario(addr, clusterEP, name string) (scenario, error) {
	set := 0
	for _, v := range []string{addr, clusterEP, name} {
		if v != "" {
			set++
		}
	}
	if set != 1 {
		return scenario{}, fmt.Errorf("need exactly one of -addr, -cluster and -scenario (scenarios: %s)",
			strings.Join(scenarioNames(), ", "))
	}
	var target func(loadConfig) (result, error)
	switch {
	case addr != "":
		name, target = "addr", func(cfg loadConfig) (result, error) { return drive("remote", addr, cfg) }
	case clusterEP != "":
		name, target = "cluster", func(cfg loadConfig) (result, error) {
			return driveCluster(strings.Split(clusterEP, ","), cfg)
		}
	default:
		for _, sc := range scenarios {
			if sc.name == name {
				return sc, nil
			}
		}
		return scenario{}, fmt.Errorf("unknown -scenario %q (valid: %s)", name, strings.Join(scenarioNames(), ", "))
	}
	return scenario{name, func(cfg loadConfig) (any, []claim, error) {
		res, err := target(cfg)
		if err != nil {
			return nil, nil, err
		}
		return printResults(cfg, res), nil, nil
	}}, nil
}

// printResults renders each pass and returns them as the result document of
// the cache-aside modes.
func printResults(cfg loadConfig, results ...result) []result {
	for _, r := range results {
		printResult(r, cfg)
	}
	return results
}

// hostEngine serves one cache on loopback: STEM-managed, or with lru the
// sharded-LRU baseline of identical geometry.
func hostEngine(cfg loadConfig, lru bool) (*cluster.Node, error) {
	return cluster.StartNode(0, cluster.NodeConfig{
		Cache: stemcache.Config{Capacity: cfg.Capacity, Seed: cfg.Seed},
		LRU:   lru,
	})
}

// noHarmMargin is how far below the sharded LRU's server hit rate STEM's may
// land in the compare scenario. The paper's claim is comparative — STEM
// gains where set demand is non-uniform (mixed, scan) and does no harm where
// it is not (zipf, hotspot-shift) — and the workers race, so "no harm" is a
// margin, not zero.
const noHarmMargin = 0.01

// compareScenario is the STEM vs sharded-LRU hit-rate comparison the paper
// is about: identical geometry, identical key streams, the two engines
// driven one after the other so they never contend for the machine.
func compareScenario(cfg loadConfig) (any, []claim, error) {
	var results []result
	for _, lru := range []bool{false, true} {
		engine := "stem"
		if lru {
			engine = "lru"
		}
		node, err := hostEngine(cfg, lru)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", engine, err)
		}
		res, err := drive(engine, node.Addr(), cfg)
		node.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", engine, err)
		}
		results = append(results, res)
	}
	printResults(cfg, results...)
	return results, []claim{
		atLeast("stem_minus_lru_server_hit_rate", results[0].ServerHitRate-results[1].ServerHitRate, -noHarmMargin),
	}, nil
}

// saturatingRate is the latency scenario's open-loop arrival rate when -rate
// is not given: far above what a loopback round trip sustains, so the open
// pass runs saturated from its first arrivals.
const saturatingRate = 2_000_000

// latencyScenario is the coordinated-omission experiment: one STEM server
// serves a closed-loop pass and then an open-loop pass at cfg.Rate. The
// closed pass doubles as warm-up, so the open pass measures queueing against
// a steady-state cache rather than a cold one. Scheduled above saturation,
// the open loop charges every delayed arrival's queueing to the histogram,
// so its p99 must be at least the closed loop's.
func latencyScenario(cfg loadConfig) (any, []claim, error) {
	if cfg.Rate <= 0 {
		cfg.Rate = saturatingRate
	}
	node, err := hostEngine(cfg, false)
	if err != nil {
		return nil, nil, err
	}
	defer node.Close()

	closedCfg := cfg
	closedCfg.Rate = 0
	closed, err := drive("stem", node.Addr(), closedCfg)
	if err != nil {
		return nil, nil, fmt.Errorf("closed pass: %w", err)
	}
	open, err := drive("stem", node.Addr(), cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("open pass: %w", err)
	}
	results := printResults(cfg, closed, open)

	// Histogram sanity, counted over both passes: quantiles must be monotone
	// up to the max, and a pass that finished must report a throughput.
	disorder := 0
	minRate := closed.OpsPerSec
	for _, r := range results {
		if r.LatP50Micros > r.LatP99Micros || r.LatP99Micros > r.LatP999Micros || r.LatP999Micros > r.LatMaxMicros {
			disorder++
		}
		minRate = min(minRate, r.OpsPerSec)
	}
	claims := []claim{
		atLeast("open_minus_closed_p99_us", open.LatP99Micros-closed.LatP99Micros, 0),
		exactly("passes_with_disordered_quantiles", float64(disorder), 0),
		atLeast("min_ops_per_sec", minRate, 1),
	}
	if cfg.TraceEvery > 0 {
		claims = append(claims,
			atLeast("min_trace_samples", float64(min(closed.TraceSamples, open.TraceSamples)), 1))
	}
	return results, claims, nil
}
