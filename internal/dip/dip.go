// Package dip implements the Dynamic Insertion Policy of Qureshi, Jaleel,
// Patt, Steely and Emer (ISCA 2007), the temporal-management baseline of the
// STEM evaluation, and Dynamic RRIP (Jaleel et al., ISCA 2010), the same
// cache over the SRRIP/BRRIP pair.
//
// DIP duels LRU against BIP cache-wide through one policy.Duel: Sets/64
// leader sets always run LRU, as many always run BIP, and the PSEL counter
// their misses move decides what every other set inserts with. The paper's
// astar pathology (§5.2) comes precisely from this application-level
// decision being imposed on every non-sample set, which this implementation
// reproduces.
//
// DRRIP postdates the STEM paper and is not part of its evaluation; the
// repository includes it as the extension baseline for the question the
// paper leaves open: does set-level spatiotemporal management still pay
// against the next generation of cache-level temporal policies? (See the
// extension row and EXPERIMENTS.md.)
package dip

import (
	"repro/internal/basecache"
	"repro/internal/policy"
	"repro/internal/sim"
)

// Cache is a set-dueling cache implementing sim.Simulator: a basecache whose
// leader sets run a fixed kind and whose followers insert with the duel's
// winner.
type Cache struct {
	*basecache.Cache
	duel *policy.Duel
	a, b policy.Kind // the duel's flavours
}

// New constructs a DIP cache, LRU against BIP. It panics on invalid geometry
// or fewer than two sets.
func New(geom sim.Geometry, seed uint64) *Cache {
	return newDueling("DIP", policy.LRU, policy.BIP, geom, seed)
}

// NewDRRIP constructs a DRRIP cache, SRRIP against BRRIP. It panics on
// invalid geometry or fewer than two sets.
func NewDRRIP(geom sim.Geometry, seed uint64) *Cache {
	return newDueling("DRRIP", policy.SRRIP, policy.BRRIP, geom, seed)
}

func newDueling(name string, a, b policy.Kind, geom sim.Geometry, seed uint64) *Cache {
	c := &Cache{duel: policy.NewDuel(geom.Sets), a: a, b: b}
	winner := c.winner
	c.Cache = basecache.New(name, geom, seed, func(set, ways int, rng *sim.RNG) policy.Policy {
		if c.duel.Leader(set) {
			return policy.New(c.kind(c.duel.B(set)), ways, rng)
		}
		return policy.NewDual(ways, rng, winner)
	})
	return c
}

// Access implements sim.Simulator. The duel counts a miss after the fill:
// only a follower's insert reads PSEL, and a follower's miss never moves it.
func (c *Cache) Access(a sim.Access) sim.Outcome {
	out := c.Cache.Access(a)
	if !out.Hit {
		c.duel.Miss(c.Geometry().Index(a.Block))
	}
	return out
}

// winner returns the kind the followers insert with now.
func (c *Cache) winner() policy.Kind { return c.kind(c.duel.BWins()) }

func (c *Cache) kind(b bool) policy.Kind {
	if b {
		return c.b
	}
	return c.a
}
