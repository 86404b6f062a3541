// Package membership is the cluster's one control plane: every change of
// ring ownership — joins and leaves with bounded slot movement, demand
// rebalancing, heartbeat-driven failover — goes through its Manager, and
// each one ends by re-placing replicas and pushing the new view.
//
//   - Manager is the control plane, one per cluster, driven by the owner's
//     control loop: it keeps the authoritative member table and replica
//     placement, plans every transition's slot moves and runs them through
//     one executor, counts each member's consecutive missed heartbeats
//     (SuspectAfter of them fail it over, once), and pushes every new view
//     to the data plane over the wire (OpView).
//   - Agent is the data plane, one per node: it receives pushed views,
//     fans every applied write out to the slot's replicas (the
//     server.Replicator hook, synchronous before the ack — which is what
//     makes failover lossless for acked writes up to RF-1 failures), and
//     read-repairs misses on slots the node acquired through promotion or
//     migration by consulting the surviving replicas.
//
// The paper's taker/giver reasoning appears twice one level up. A demand
// round (Manager.Rebalance) moves a saturated member's coldest slots to a
// member with slack. Replica placement sends follower copies to the nodes
// with the most slack, never pushing one past a 0.9 receive cap — the
// node-level analog of "a giver's SC_S MSB must be clear to accept
// spills". Demand reaches the manager one way, its heartbeat: a PING with
// wire.FlagDemand brings the node's snapshot back, and every demand round
// heartbeats every serving member before it classifies any, so the round
// decides on demand as it stands. The server answers FlagDemand on any
// opcode, but only that PING sends it.
//
// Lock hierarchy (enforced by the stemlint lockorder analyzer): Manager.mu
// before Agent.mu. Neither is held across a network call.
package membership

import (
	"repro/internal/obs"
)

// chunkSize bounds one migration or replica-copy MGET/MSET frame.
const chunkSize = 256

// Config parameterizes a Manager.
type Config struct {
	// ReplicationFactor is the number of copies per slot including the
	// owner. 1 disables replication (failover then loses the dead node's
	// data). Default 2.
	ReplicationFactor int
	// SuspectAfter is how many consecutive missed heartbeats declare a
	// node dead. Default 3.
	SuspectAfter int
	// MaxMovesPerEpoch bounds slot moves per Rebalance round — the
	// node-level analog of the paper's one-association-per-refresh pacing:
	// capacity shifts gradually so a transient skew cannot thrash
	// ownership. Default 2.
	MaxMovesPerEpoch int
	// TakerFrac classifies a member as a taker when its demand score — the
	// larger of its taker-set fraction and its mean SC_S saturation — is
	// at least this. Default 0.5.
	TakerFrac float64
	// GiverFrac classifies a member as a giver when its demand score is at
	// most this. Default 0.25.
	GiverFrac float64
	// Metrics, when non-nil, receives counters under "membership.*" and
	// the demand rounds' under "cluster.*".
	Metrics *obs.Registry
	// Observer, when non-nil, receives node lifecycle, replica, demand and
	// migration events.
	Observer obs.Observer
}

func (c Config) withDefaults() Config {
	if c.ReplicationFactor <= 0 {
		c.ReplicationFactor = 2
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3
	}
	if c.MaxMovesPerEpoch <= 0 {
		c.MaxMovesPerEpoch = 2
	}
	if c.TakerFrac <= 0 {
		c.TakerFrac = 0.5
	}
	if c.GiverFrac <= 0 {
		c.GiverFrac = 0.25
	}
	return c
}
