package cluster

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/wire"
)

// RebalancerConfig parameterizes a Rebalancer.
type RebalancerConfig struct {
	// MaxMovesPerEpoch bounds slot migrations per Epoch call — the
	// node-level analog of the paper's one-association-per-refresh pacing:
	// capacity shifts gradually so a transient skew cannot thrash
	// ownership. Default 2.
	MaxMovesPerEpoch int
	// TakerFrac classifies a node as a taker when its demand score — the
	// larger of its taker-set fraction and its mean SC_S saturation — is
	// at least this. Default 0.5.
	TakerFrac float64
	// GiverFrac classifies a node as a giver when its demand score is at
	// most this. Default 0.25.
	GiverFrac float64
	// ChunkSize bounds one migration MGET/MSET frame. Default 256.
	ChunkSize int
	// Metrics, when non-nil, receives rebalancer counters under
	// "cluster.*".
	Metrics *obs.Registry
	// Observer, when non-nil, receives EvNodeDemand and EvSlotMigrate
	// events.
	Observer obs.Observer
}

func (c RebalancerConfig) withDefaults() RebalancerConfig {
	if c.MaxMovesPerEpoch <= 0 {
		c.MaxMovesPerEpoch = 2
	}
	if c.TakerFrac <= 0 {
		c.TakerFrac = 0.5
	}
	if c.GiverFrac <= 0 {
		c.GiverFrac = 0.25
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = 256
	}
	return c
}

// Rebalancer applies STEM's taker/giver coupling at node granularity: each
// Epoch it reads every node's demand snapshot (the aggregate of its per-set
// SCDM monitors), classifies saturated nodes as takers and under-utilized
// ones as givers, and migrates up to MaxMovesPerEpoch of the takers'
// coldest loaded virtual-node slots to givers (freeing the taker's
// capacity for its hot data) — request draining, key handoff via MGET/MSET,
// then the ring ownership flip.
//
// Epoch is not safe for concurrent use with itself (one rebalancing loop
// per cluster); it is safe to run concurrently with client traffic.
type Rebalancer struct {
	cl     *Client
	lister KeyLister
	cfg    RebalancerConfig
	epoch  uint64

	// obsMu serializes Observer callbacks (rank 2: the package's innermost
	// lock).
	obsMu sync.Mutex

	epochs, migrations, keysMoved *obs.Counter
}

// Move records one slot migration of an epoch.
type Move struct {
	// Slot is the migrated slot; From and To its old and new owners.
	Slot, From, To int
	// Keys is how many resident keys were handed off.
	Keys int
}

// EpochReport is one Epoch's outcome.
type EpochReport struct {
	// Epoch numbers the call (1-based).
	Epoch uint64
	// Demands holds every node's snapshot, indexed by node.
	Demands []wire.NodeDemand
	// Moves lists the migrations performed (len ≤ MaxMovesPerEpoch).
	Moves []Move
}

// NewRebalancer builds a rebalancer driving cl's ring. lister must
// enumerate the keys resident on a node (see KeyLister).
func NewRebalancer(cl *Client, lister KeyLister, cfg RebalancerConfig) (*Rebalancer, error) {
	if cl == nil {
		return nil, fmt.Errorf("cluster: rebalancer needs a client")
	}
	if lister == nil {
		return nil, fmt.Errorf("cluster: rebalancer needs a key lister")
	}
	cfg = cfg.withDefaults()
	rb := &Rebalancer{cl: cl, lister: lister, cfg: cfg}
	if reg := cfg.Metrics; reg != nil {
		rb.epochs = reg.Counter("cluster.epochs")
		rb.migrations = reg.Counter("cluster.migrations")
		rb.keysMoved = reg.Counter("cluster.keys_moved")
	}
	return rb, nil
}

// nodeState is one node's standing within an epoch's planning pass.
type nodeState struct {
	id     int
	demand wire.NodeDemand
	load   uint64
}

// Epoch runs one rebalancing round: poll demands, classify, migrate. The
// report is returned even alongside an error (it reflects what completed).
func (rb *Rebalancer) Epoch() (EpochReport, error) {
	rb.epoch++
	rb.epochs.Inc()
	report := EpochReport{Epoch: rb.epoch}

	n := rb.cl.Nodes()
	report.Demands = make([]wire.NodeDemand, n)
	for i := 0; i < n; i++ {
		// Prefer the push-based snapshot (piggybacked on responses or a
		// membership heartbeat); pull only from nodes nothing has been
		// pushed from yet. The pull is the node connection's own heartbeat,
		// which does not enter the cache unless push sampling is on — a
		// cluster without push pulls a fresh snapshot every epoch.
		d, ok := rb.cl.CachedDemand(i)
		if !ok {
			var err error
			if d, err = rb.cl.NodeClient(i).Heartbeat(); err != nil {
				return report, fmt.Errorf("cluster: demand pull from node %d: %w", i, err)
			}
		}
		report.Demands[i] = d
	}

	slotLoads := rb.cl.TakeSlotLoads()
	ring := rb.cl.Ring()
	owners := ring.Owners()
	states := make([]nodeState, n)
	for i := range states {
		states[i] = nodeState{id: i, demand: report.Demands[i]}
	}
	for s, o := range owners {
		states[o].load += slotLoads[s]
	}

	takers, givers := rb.classify(states)
	if len(takers) == 0 || len(givers) == 0 {
		return report, nil
	}

	// Plan migrations: each taker sheds its COLDEST loaded slots to the
	// least loaded giver. Shedding cold slots is the node-level analog of a
	// giver donating ways to a taker set: the saturated node keeps its hot
	// data local and gains the shed slot's capacity for it, while the slack
	// node absorbs load it can easily serve. (Shedding the hottest slot
	// would merely transplant the overload onto the giver.) A move must
	// also improve the pairwise balance — the giver must stay below the
	// taker's pre-move load, mirroring the set-level rule that a giver's
	// SC_S MSB must be clear to accept spills. Load books are updated as
	// moves are planned so one epoch's moves do not all pile onto the same
	// giver.
	moves := 0
	for _, taker := range takers {
		if moves >= rb.cfg.MaxMovesPerEpoch {
			break
		}
		slots := ring.OwnedSlots(taker.id)
		if len(slots) <= 1 {
			continue // never strip a node of its last slot
		}
		sort.Slice(slots, func(i, j int) bool {
			if slotLoads[slots[i]] != slotLoads[slots[j]] {
				return slotLoads[slots[i]] < slotLoads[slots[j]]
			}
			return slots[i] < slots[j]
		})
		for _, slot := range slots {
			if moves >= rb.cfg.MaxMovesPerEpoch || len(ring.OwnedSlots(taker.id)) <= 1 {
				break
			}
			load := slotLoads[slot]
			if load == 0 {
				continue // nothing routed here this epoch: no signal to act on
			}
			g := rb.pickGiver(givers, states, load, states[taker.id].load)
			if g < 0 {
				continue
			}
			mv, err := rb.migrate(slot, taker.id, g)
			if err != nil {
				return report, err
			}
			report.Moves = append(report.Moves, mv)
			states[taker.id].load -= load
			states[g].load += load
			moves++
		}
	}
	return report, nil
}

// demandScore folds a node's snapshot into one starvation figure in
// [0, 1]: the larger of its taker-set fraction (how many sets are pinned
// at saturation right now) and its mean SC_S saturation (how hard the
// whole population of counters is pushing). The max matters: a uniformly
// thrashing cache can hold high mean saturation while few sets sit at the
// exact maximum at poll time, and vice versa.
func demandScore(d wire.NodeDemand) float64 {
	return max(d.TakerFrac(), d.Saturation())
}

// classify splits nodes into takers (demand-saturated, most loaded first)
// and givers (slack, least loaded first). Ties break by node id so the
// plan is deterministic.
func (rb *Rebalancer) classify(states []nodeState) (takers, givers []nodeState) {
	for _, st := range states {
		score := demandScore(st.demand)
		class := "neutral"
		switch {
		case score >= rb.cfg.TakerFrac:
			class = "taker"
			takers = append(takers, st)
		case score <= rb.cfg.GiverFrac:
			class = "giver"
			givers = append(givers, st)
		}
		rb.observe(obs.Event{
			Type: obs.EvNodeDemand, Tick: rb.epoch, Set: st.id,
			ScS: int(st.demand.TakerSets), ScT: int(st.demand.GiverSets),
			Life: uint64(st.demand.CoupledSets), Class: class,
		})
	}
	sort.Slice(takers, func(i, j int) bool {
		if takers[i].load != takers[j].load {
			return takers[i].load > takers[j].load
		}
		return takers[i].id < takers[j].id
	})
	sort.Slice(givers, func(i, j int) bool {
		if givers[i].load != givers[j].load {
			return givers[i].load < givers[j].load
		}
		return givers[i].id < givers[j].id
	})
	return takers, givers
}

// pickGiver returns the id of the least-loaded giver that can absorb a
// slot of the given load while staying below the taker's pre-move load, or
// -1. states carries the live load books (updated by prior planned moves).
func (rb *Rebalancer) pickGiver(givers []nodeState, states []nodeState, slotLoad, takerLoad uint64) int {
	best, bestLoad := -1, uint64(0)
	for _, g := range givers {
		load := states[g.id].load
		if load+slotLoad >= takerLoad {
			continue // the move would not improve the pairwise balance
		}
		if best < 0 || load < bestLoad {
			best, bestLoad = g.id, load
		}
	}
	return best
}

// migrate hands slot from node `from` to node `to` via Client.MoveSlot
// (drain → copy → flip → delete) and records the move's metrics and event.
func (rb *Rebalancer) migrate(slot, from, to int) (Move, error) {
	mv, err := rb.cl.MoveSlot(rb.lister, slot, from, to, rb.cfg.ChunkSize)
	if err != nil {
		return mv, err
	}

	rb.migrations.Inc()
	rb.keysMoved.Add(uint64(mv.Keys))
	rb.observe(obs.Event{
		Type: obs.EvSlotMigrate, Tick: rb.epoch, Set: slot,
		ScS: from, Partner: to, Life: uint64(mv.Keys),
	})
	return mv, nil
}

// observe forwards an event to the configured Observer under obsMu.
func (rb *Rebalancer) observe(e obs.Event) {
	if rb.cfg.Observer == nil {
		return
	}
	rb.obsMu.Lock()
	rb.cfg.Observer.Event(e)
	rb.obsMu.Unlock()
}
