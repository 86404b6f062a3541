package workloads

// Multi-tenant serving load: N independent seeded key streams — one per
// namespace, each with its own distribution, working-set size and Zipf skew
// — interleaved into one (namespace, key) stream by weighted draw. Built
// for cmd/stemload's tenants scenario: one driver goroutine replays an
// identical multi-tenant mix against several servers, so per-tenant hit
// rates are exactly comparable across capacity-management policies.
//
// Two properties the tests pin:
//
//   - Determinism: equal parameters give byte-identical (namespace, key)
//     sequences.
//   - Partition: tenant i's subsequence equals the prefix of its solo
//     stream. Each stream owns an RNG seeded only by its own Seed, and the
//     interleaver draws from a separate RNG, so adding, removing or
//     reweighting other tenants never perturbs the keys a tenant sees —
//     only how often it is scheduled.

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// TenantStream parameterizes one tenant's key stream.
type TenantStream struct {
	// Name is the tenant's namespace (rides the wire tenant field; "" is
	// the default namespace).
	Name string
	// Dist is the key distribution: "zipf", "scan" or "mixed" (the subset
	// of KeyDists that makes sense per tenant; "hotspot-shift" is a
	// cluster-level workload).
	Dist string
	// Capacity sizes the stream's working set, in cache entries — the same
	// role the cache capacity plays in NewKeyStream: "zipf" draws from
	// 8*Capacity keys, "scan" sweeps 2*Capacity, "mixed" keeps a hot set of
	// Capacity/4 against the sweep. Per tenant it is the knob that decides
	// whether the tenant fits its share (giver) or starves (taker).
	Capacity int
	// Skew is the Zipf exponent of the stream's skewed draws. 0 means the
	// default (1.0, the classic web skew); larger is hotter, smaller
	// flatter; must be finite and non-negative. Ignored by "scan".
	Skew float64
	// Weight is the stream's relative share of the interleave. 0 means 1.
	Weight float64
	// Seed drives the stream's own RNG (and scan phase). Streams with equal
	// (Dist, Capacity, Skew, Seed) produce identical key sequences, whoever
	// they are interleaved with.
	Seed uint64
}

// TenantDists lists the distributions a TenantStream accepts.
func TenantDists() []string { return []string{"zipf", "scan", "mixed"} }

func (ts TenantStream) validate(i int) error {
	switch ts.Dist {
	case "zipf", "scan", "mixed":
	default:
		return fmt.Errorf("workloads: tenant stream %d (%q): unknown distribution %q (have %v)", i, ts.Name, ts.Dist, TenantDists())
	}
	if ts.Capacity <= 0 {
		return fmt.Errorf("workloads: tenant stream %d (%q): capacity %d must be positive", i, ts.Name, ts.Capacity)
	}
	if math.IsNaN(ts.Skew) || math.IsInf(ts.Skew, 0) || ts.Skew < 0 {
		return fmt.Errorf("workloads: tenant stream %d (%q): skew %v must be finite and non-negative", i, ts.Name, ts.Skew)
	}
	if math.IsNaN(ts.Weight) || math.IsInf(ts.Weight, 0) || ts.Weight < 0 {
		return fmt.Errorf("workloads: tenant stream %d (%q): weight %v must be finite and non-negative", i, ts.Name, ts.Weight)
	}
	return nil
}

// gen builds the stream's solo key generator (not safe for concurrent use).
func (ts TenantStream) gen() func() string {
	skew := ts.Skew
	if skew == 0 {
		skew = 1
	}
	return keyStream(ts.Dist, ts.Capacity, skew, ts.Seed, 0, 1)
}

// NewTenantKeyStream interleaves the tenants' streams into one deterministic
// (namespace, key) generator: each call schedules a tenant by weighted draw
// from an interleave RNG seeded only by seed, then draws that tenant's next
// key from its own stream. The generator is not safe for concurrent use.
// Invalid parameters are reported as errors, never panics — the stream specs
// reach this point straight from cmd/stemload flags.
func NewTenantKeyStream(streams []TenantStream, seed uint64) (func() (namespace, key string), error) {
	if len(streams) == 0 {
		return nil, fmt.Errorf("workloads: tenant key stream needs at least one stream")
	}
	seen := map[string]bool{}
	total := 0.0
	weights := make([]float64, len(streams))
	gens := make([]func() string, len(streams))
	for i, ts := range streams {
		if err := ts.validate(i); err != nil {
			return nil, err
		}
		if seen[ts.Name] {
			return nil, fmt.Errorf("workloads: duplicate tenant stream namespace %q", ts.Name)
		}
		seen[ts.Name] = true
		w := ts.Weight
		if w == 0 {
			w = 1
		}
		weights[i] = w
		total += w
		gens[i] = ts.gen()
	}
	pick := sim.NewRNG(seed ^ 0xa5a5_5a5a_9e37_79b9)
	return func() (string, string) {
		u := pick.Float64() * total
		i := 0
		for ; i < len(weights)-1; i++ {
			if u < weights[i] {
				break
			}
			u -= weights[i]
		}
		return streams[i].Name, gens[i]()
	}, nil
}
