// Package membership manages the cluster's node lifecycle underneath the
// ring: joins and leaves with bounded slot movement, replica placement that
// reuses the paper's taker/giver reasoning, and heartbeat-driven failover.
//
// The split of responsibilities mirrors the rest of the repository's
// "mechanism vs. policy" layering:
//
//   - Manager is the control plane, driven by whoever owns the cluster (one
//     per cluster): it keeps the authoritative member table and replica
//     placement, executes join/leave migrations through the rebalancer's
//     move machinery (cluster.Client.MoveSlot/CopySlot), runs the failure
//     detector off its heartbeats, and pushes every new view to the data
//     plane over the wire (OpView).
//   - Agent is the data plane, one per node: it receives pushed views,
//     fans every applied write out to the slot's replicas (the
//     server.Replicator hook, synchronous before the ack — which is what
//     makes failover lossless for acked writes up to RF-1 failures), and
//     read-repairs misses on slots the node acquired through promotion or
//     migration by consulting the surviving replicas.
//   - Detector is the failure detector: consecutive missed heartbeats
//     accumulate suspicion; crossing SuspectAfter declares the node dead
//     exactly once, which triggers the Manager's failover (replica
//     promotion — a pure ownership flip, the data is already there — plus
//     re-replication to restore the factor).
//
// Replica placement applies STEM's giver preference one level up: follower
// copies land on the nodes with the most capacity slack (givers first), but
// never so many that a giver's projected utilization crosses a fixed 0.9
// receive cap — the node-level analog of "a giver's SC_S MSB must be clear
// to accept spills". Demand reaches the manager push-based: piggybacked on
// ordinary responses (wire.FlagDemand sampling) with the heartbeat doubling
// as gossip for idle nodes.
//
// Lock hierarchy (enforced by the stemlint lockorder analyzer):
// Detector.mu before Manager.mu before Agent.mu. None is held across a
// network call.
package membership

import (
	"repro/internal/obs"
)

// Config parameterizes a Manager.
type Config struct {
	// ReplicationFactor is the number of copies per slot including the
	// owner. 1 disables replication (failover then loses the dead node's
	// data). Default 2.
	ReplicationFactor int
	// SuspectAfter is how many consecutive missed heartbeats declare a
	// node dead. Default 3.
	SuspectAfter int
	// ChunkSize bounds one replica-copy MGET/MSET frame. Default 256.
	ChunkSize int
	// Metrics, when non-nil, receives membership counters under
	// "membership.*".
	Metrics *obs.Registry
	// Observer, when non-nil, receives node lifecycle and replica events.
	Observer obs.Observer
}

func (c Config) withDefaults() Config {
	if c.ReplicationFactor <= 0 {
		c.ReplicationFactor = 2
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = 256
	}
	return c
}
