// Package membership is the cluster's one control plane: every change of
// slot ownership — joins and leaves with bounded slot movement,
// heartbeat-driven failover — goes through its Manager, and each one ends
// by re-placing replicas and pushing the new view. The view (a
// wire.View) is the only record of ownership: the manager writes it,
// each node's agent holds the copy pushed to it, and every routing client
// holds the copy the nodes last answered it with.
//
//   - Manager is the control plane, one per cluster, driven by the owner's
//     control loop: it keeps the authoritative member table and replica
//     placement, plans every transition's slot moves and runs them through
//     one executor, counts each member's consecutive missed heartbeats
//     (SuspectAfter of them fail it over, once), and pushes every new view
//     to the data plane over the wire (OpView).
//   - Agent is the data plane, one per node: it receives pushed views and
//     has its server answer MOVED for keys the node does not serve under
//     them (a write needs the slot's owner, a read one of its replicas),
//     fans every applied write out to the slot's replicas (through the
//     server.Membership hook, synchronous before the ack — which is what
//     makes failover lossless for acked writes up to RF-1 failures). It
//     answers a miss from its own cache: no node probes another.
//
// Replica placement gives every slot min(RF, alive) copies, each follower
// to the alive node hosting the fewest, ties to the lower id. It reads no
// cache state: the paper's giver/taker signal steers spills between sets
// inside each node's cache, and the heartbeat is a plain PING.
//
// The package's one lock is Agent.mu, never held across a network call;
// the Manager's view is an atomic pointer its one control loop replaces.
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
	// Metrics, when non-nil, receives counters under "membership.*".
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
	return c
}
