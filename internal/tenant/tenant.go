// Package tenant is the multi-tenant namespace model for the serving tiers:
// a registry mapping namespace names to dense tenant ids (with per-tenant
// capacity policy), and the cross-tenant capacity arbiter — the STEM paper's
// set-level taker/giver classification lifted one level, to whole tenants.
//
// The registry is the shared vocabulary of the stack: internal/wire carries
// a namespace name on each request, internal/server resolves it to an id
// here, and internal/stemcache accounts demand and enforces capacity targets
// per id. Tenant 0 is the default tenant — the empty namespace every
// pre-tenant client implicitly uses — so single-tenant deployments behave
// exactly as before.
//
// Arbitration mirrors the paper's spatial mechanism (§4.5-4.7) at tenant
// granularity. Each epoch, every tenant's demand evidence (shadow hits: a
// missing key whose signature is still in a shadow directory — "one more
// entry of capacity would have been a hit") classifies it as a taker
// (starved), a giver (slack) or neutral. Takers then grow their capacity
// targets only by claiming giver slack, and never push a giver below its
// configured min-reserve — the receiving constraint: capacity flows from the
// slack to the starved, but a donor is never starved in turn.
package tenant

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// MaxTenants bounds how many tenants one registry (and thus one cache) can
// hold. The bound keeps per-tenant accounting in fixed dense arrays indexed
// by id; namespaces registered past it fold into the default tenant rather
// than failing the request.
const MaxTenants = 64

// MaxNameLen bounds a namespace name, matching the wire protocol's
// uint8-length-prefixed namespace field.
const MaxNameLen = 64

// DefaultID is the default tenant's id: the tenant of the empty namespace,
// which every request without a namespace field belongs to.
const DefaultID = 0

// Config is one tenant's capacity policy.
type Config struct {
	// Name is the namespace name clients send on the wire. The default
	// tenant's name is the empty string. At most MaxNameLen bytes.
	Name string
	// MinReserve is the floor, in cache entries, below which arbitration
	// never shrinks this tenant's capacity target — the receiving
	// constraint's donor-side guarantee. 0 means no floor.
	MinReserve int
	// MaxQuota caps this tenant's capacity target, in cache entries.
	// 0 means uncapped (the whole cache).
	MaxQuota int
	// Weight sets the tenant's share when capacity is divided statically
	// (StaticTargets) and its priority when giver slack is distributed.
	// 0 means 1.
	Weight float64
}

// validate reports the first problem with cfg.
func (c Config) validate() error {
	switch {
	case len(c.Name) > MaxNameLen:
		return fmt.Errorf("tenant: name of %d bytes exceeds %d", len(c.Name), MaxNameLen)
	case c.MinReserve < 0:
		return fmt.Errorf("tenant: MinReserve must be >= 0, got %d", c.MinReserve)
	case c.MaxQuota < 0:
		return fmt.Errorf("tenant: MaxQuota must be >= 0, got %d", c.MaxQuota)
	case c.MaxQuota > 0 && c.MinReserve > c.MaxQuota:
		return fmt.Errorf("tenant: MinReserve %d exceeds MaxQuota %d", c.MinReserve, c.MaxQuota)
	case c.Weight < 0:
		return fmt.Errorf("tenant: Weight must be >= 0, got %v", c.Weight)
	}
	return nil
}

// weight returns the effective weight (0 defaults to 1).
func (c Config) weight() float64 {
	if c.Weight <= 0 {
		return 1
	}
	return c.Weight
}

// Registry maps namespace names to dense tenant ids. It is safe for
// concurrent use; Resolve on a registered name is lock-free and performs no
// allocation, which is what keeps the server's namespaced hot path at zero
// allocations per request.
type Registry struct {
	// mu guards registration (the slow path). Rank: leaf — never held while
	// calling out of this package.
	mu       sync.Mutex
	configs  []Config
	defaults Config

	// byName is the immutable name→id snapshot the hot path reads; every
	// registration installs a fresh map.
	byName atomic.Pointer[map[string]int]
}

// NewRegistry builds a registry holding only the default tenant (id 0,
// empty name). defaults seeds the default tenant's policy and the policy of
// every namespace auto-registered by Resolve; its Name field is ignored.
func NewRegistry(defaults Config) *Registry {
	defaults.Name = ""
	r := &Registry{defaults: defaults}
	r.configs = append(r.configs, defaults)
	r.publish()
	return r
}

// publish installs a fresh name→id snapshot (caller holds mu, or is the
// constructor).
func (r *Registry) publish() {
	m := make(map[string]int, len(r.configs))
	for id, cfg := range r.configs {
		m[cfg.Name] = id
	}
	r.byName.Store(&m)
}

// Register adds a tenant with an explicit policy and returns its id. It is
// an error to register a duplicate name, an invalid config, or to exceed
// MaxTenants. Registering the empty name updates the default tenant's
// policy in place instead of adding a tenant.
func (r *Registry) Register(cfg Config) (int, error) {
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if cfg.Name == "" {
		r.configs[DefaultID] = cfg
		r.defaults.MinReserve, r.defaults.MaxQuota, r.defaults.Weight = cfg.MinReserve, cfg.MaxQuota, cfg.Weight
		r.publish()
		return DefaultID, nil
	}
	if _, ok := (*r.byName.Load())[cfg.Name]; ok {
		return 0, fmt.Errorf("tenant: %q already registered", cfg.Name)
	}
	if len(r.configs) >= MaxTenants {
		return 0, fmt.Errorf("tenant: registry full (%d tenants)", MaxTenants)
	}
	id := len(r.configs)
	r.configs = append(r.configs, cfg)
	r.publish()
	return id, nil
}

// Resolve returns the id of name, auto-registering an unknown namespace
// with the registry's default policy. A name that cannot be registered —
// registry full, or longer than MaxNameLen — folds into the default tenant.
// The fast path (registered name) is one atomic load and one map lookup:
// no locks, no allocation.
func (r *Registry) Resolve(name string) int {
	if id, ok := (*r.byName.Load())[name]; ok {
		return id
	}
	if len(name) > MaxNameLen {
		return DefaultID
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// Re-check under the lock: another goroutine may have registered name
	// between the load above and here.
	if id, ok := (*r.byName.Load())[name]; ok {
		return id
	}
	if len(r.configs) >= MaxTenants {
		return DefaultID
	}
	cfg := r.defaults
	// The name may alias a network buffer (zero-copy decode); clone before
	// retaining it.
	cfg.Name = strings.Clone(name)
	id := len(r.configs)
	r.configs = append(r.configs, cfg)
	r.publish()
	return id
}

// Lookup returns the id of name without registering it.
func (r *Registry) Lookup(name string) (int, bool) {
	id, ok := (*r.byName.Load())[name]
	return id, ok
}

// Len returns the number of registered tenants (the default tenant counts).
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.configs)
}

// Name returns the namespace name of id ("" for the default tenant or an
// out-of-range id).
func (r *Registry) Name(id int) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id < 0 || id >= len(r.configs) {
		return ""
	}
	return r.configs[id].Name
}

// Config returns the policy of id (the default policy for an out-of-range
// id).
func (r *Registry) Config(id int) Config {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id < 0 || id >= len(r.configs) {
		return r.defaults
	}
	return r.configs[id]
}

// Configs returns a copy of every registered tenant's policy, indexed by id.
func (r *Registry) Configs() []Config {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Config, len(r.configs))
	copy(out, r.configs)
	return out
}

// Class is a tenant's arbitration role for one epoch — the paper's set
// classification lifted to tenant level.
type Class uint8

// Tenant classes.
const (
	// Neutral tenants neither claim nor cede capacity this epoch.
	Neutral Class = iota
	// Taker tenants show shadow-hit demand while using their allotment:
	// more capacity would turn their misses into hits.
	Taker
	// Giver tenants show no shadow-hit demand: their allotment exceeds what
	// their working set can use.
	Giver
)

// String names the class for stats and events.
func (c Class) String() string {
	switch c {
	case Taker:
		return "taker"
	case Giver:
		return "giver"
	default:
		return "neutral"
	}
}

// Demand is one tenant's accounting snapshot feeding one arbitration epoch.
// Gets and ShadowHits are epoch deltas; Live and Target are current values.
type Demand struct {
	// ID is the tenant id the outcome applies to.
	ID int
	// Live is the tenant's resident entry count.
	Live int
	// Target is the tenant's current capacity target, in entries.
	Target int
	// Gets is the tenant's lookups this epoch.
	Gets uint64
	// ShadowHits counts this epoch's misses whose key signature was still
	// in a shadow directory — the "one more way would have hit" evidence
	// stream (paper §4.3), aggregated over the tenant's keys.
	ShadowHits uint64
	// Cfg is the tenant's capacity policy.
	Cfg Config
}

// Outcome is one tenant's arbitration result: its next capacity target and
// the class that produced it.
type Outcome struct {
	// ID echoes the tenant id.
	ID int
	// Target is the next epoch's capacity target, in entries.
	Target int
	// Class is the classification that drove the adjustment.
	Class Class
}

// Classification thresholds: a tenant whose epoch shadow-hit rate (shadow
// hits per get) reaches 1/takerDiv is a taker candidate; one below
// 1/giverDiv is a giver. In between is neutral — hysteresis against
// oscillation.
const (
	takerDiv = 64
	giverDiv = 512
	// minEpochGets is the traffic floor below which a tenant is never
	// classified a taker: a handful of requests is not demand evidence.
	minEpochGets = 32
	// stepDiv bounds one epoch's transfer from a single giver to
	// target/stepDiv entries, so arbitration converges over several epochs
	// instead of sloshing capacity in one.
	stepDiv = 4
)

// Classify derives d's class for this epoch. Takers must show shadow-hit
// demand and be using most of their current target (a tenant far under its
// target is not capacity-constrained, whatever its miss rate); givers show
// essentially no shadow-hit demand.
func Classify(d Demand) Class {
	gets := d.Gets
	if gets < minEpochGets {
		// Too quiet to read: a near-idle tenant neither claims capacity nor
		// cedes it (its reserve keeps protecting it either way).
		return Neutral
	}
	switch {
	case d.ShadowHits*takerDiv >= gets && d.Live*8 >= d.Target*7:
		return Taker
	case d.ShadowHits*giverDiv < gets:
		return Giver
	}
	return Neutral
}

// Arbitrate computes next-epoch capacity targets for one cache of the given
// entry capacity. Takers grow only by claiming giver slack — when no tenant
// is a giver, no tenant grows — and a giver's target never drops below its
// MinReserve (the receiving constraint). Transfers are bounded per epoch
// (stepDiv) so targets converge gradually. The sum of targets is preserved:
// what givers cede is exactly what takers gain.
func Arbitrate(ds []Demand, capacity int) []Outcome {
	out := make([]Outcome, len(ds))
	var takers, givers []int
	for i, d := range ds {
		cls := Classify(d)
		out[i] = Outcome{ID: d.ID, Target: d.Target, Class: cls}
		switch cls {
		case Taker:
			takers = append(takers, i)
		case Giver:
			givers = append(givers, i)
		}
	}
	if len(takers) == 0 || len(givers) == 0 {
		return out
	}

	// Pool the epoch's giver slack: each giver offers up to target/stepDiv
	// entries, floored at its min-reserve.
	offer := make(map[int]int, len(givers))
	pool := 0
	for _, i := range givers {
		d := ds[i]
		avail := d.Target - d.Cfg.MinReserve
		if avail <= 0 {
			continue
		}
		step := d.Target / stepDiv
		if step < 1 {
			step = 1
		}
		if step > avail {
			step = avail
		}
		offer[i] = step
		pool += step
	}
	if pool == 0 {
		return out
	}

	// Distribute the pool to takers by weight, capped by each taker's
	// quota headroom.
	var wsum float64
	for _, i := range takers {
		wsum += ds[i].Cfg.weight()
	}
	granted := 0
	for _, i := range takers {
		d := ds[i]
		share := int(float64(pool) * d.Cfg.weight() / wsum)
		quota := d.Cfg.MaxQuota
		if quota <= 0 || quota > capacity {
			quota = capacity
		}
		if room := quota - d.Target; share > room {
			share = room
		}
		if share <= 0 {
			continue
		}
		out[i].Target += share
		granted += share
	}
	if granted == 0 {
		return out
	}

	// Withdraw exactly what was granted from the givers, in proportion to
	// their offers; remainders come off the largest offers first so the sum
	// of targets is conserved.
	taken := 0
	for _, i := range givers {
		o := offer[i]
		if o == 0 {
			continue
		}
		t := o * granted / pool
		out[i].Target -= t
		taken += t
	}
	for _, i := range givers {
		if taken >= granted {
			break
		}
		d := ds[i]
		if cut := out[i].Target - d.Cfg.MinReserve; cut > 0 {
			c := granted - taken
			if c > cut {
				c = cut
			}
			if c > offer[i] {
				c = offer[i]
			}
			out[i].Target -= c
			taken += c
		}
	}
	if taken < granted {
		// Givers could not cover the rounding remainder (all at reserve):
		// trim the grants back so capacity is conserved.
		for _, i := range takers {
			if taken >= granted {
				break
			}
			if cut := out[i].Target - ds[i].Target; cut > 0 {
				c := granted - taken
				if c > cut {
					c = cut
				}
				out[i].Target -= c
				granted -= c
			}
		}
	}
	return out
}

// StaticTargets divides capacity among tenants in proportion to their
// weights, respecting min-reserves and quotas: every tenant first receives
// its MinReserve, the remainder splits by weight, and the leftover of
// integer rounding goes to tenant 0. This is both the static-partition
// baseline and the starting point arbitration adjusts from.
func StaticTargets(cfgs []Config, capacity int) []int {
	out := make([]int, len(cfgs))
	if len(cfgs) == 0 {
		return out
	}
	rest := capacity
	var wsum float64
	for i, c := range cfgs {
		out[i] = c.MinReserve
		rest -= c.MinReserve
		wsum += c.weight()
	}
	if rest < 0 {
		rest = 0
	}
	given := 0
	for i, c := range cfgs {
		share := int(float64(rest) * c.weight() / wsum)
		out[i] += share
		given += share
		if q := c.MaxQuota; q > 0 && out[i] > q {
			given -= out[i] - q
			out[i] = q
		}
	}
	if extra := rest - given; extra > 0 {
		out[0] += extra
	}
	return out
}

// Jain computes the Jain fairness index of xs: (Σx)² / (n·Σx²), 1 when all
// values are equal, approaching 1/n as one value dominates. An empty or
// all-zero input scores 1 (nothing is being treated unfairly).
func Jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}
