package membership

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Manager is the cluster's control plane: it owns the authoritative member
// table, the replica placement, and the view epoch, and it is the only
// writer of ring ownership. Every transition — Join, Leave, failover from
// Tick — plans its moves as a pure function of the view, then hands the
// plan to one executor, apply: a move off a live node goes through
// cluster.Client.MoveSlot (drain → copy → flip → delete); a move off the
// node being failed over is a pure ownership flip, the data already on the
// promoted replica, put there by the agents' synchronous write fan-out.
// apply stops at the first failed move and commits what moved: re-place
// replicas, push the view, backfill new followers.
//
// Transitions (Join/Leave/Tick) are driven by one goroutine — the cluster
// owner's control loop — and are not safe to run concurrently with each
// other. ReplicasOf and the other read accessors are safe from any
// goroutine (the client's replica-retry path calls ReplicasOf per failed
// operation).
type Manager struct {
	cl     *cluster.Client
	lister cluster.KeyLister
	cfg    Config

	// mu guards members, replicas, and epoch. Never held across a network
	// call.
	//lint:rank 0
	mu       sync.Mutex
	members  []wire.Member
	replicas [][]int
	epoch    uint64

	// missed[n] counts node n's consecutive unanswered Tick probes;
	// control loop only.
	missed []int

	joins, leaves, deaths, promotions, replicaKeys *obs.Counter
	belowRF                                        *obs.Gauge
}

// Report summarizes one membership transition.
type Report struct {
	// Epoch is the view epoch the transition produced.
	Epoch uint64
	// Node is the joining, leaving, or dead node; -1 for Bootstrap.
	Node int
	// Moves are the ownership changes, in execution order. Keys is 0 for
	// failover promotions: those are pure flips, the data was already on
	// the promoted replica.
	Moves []cluster.Move
	// ReplicaKeys counts the keys copied restoring the replication factor.
	ReplicaKeys int
	// BelowRF counts the slots the new view gives fewer than
	// ReplicationFactor copies: nonzero only while fewer nodes than that
	// are alive.
	BelowRF int
}

// New builds a manager over cl's current node set. addrs[i] is node i's
// address (the same table cl was built from). The manager installs itself
// as cl's replica source, so single-key operations start retrying through
// its placement immediately; call Bootstrap to push the initial view to
// the nodes' agents.
func New(cl *cluster.Client, lister cluster.KeyLister, addrs []string, cfg Config) (*Manager, error) {
	if cl == nil {
		return nil, errors.New("membership: manager needs a cluster client")
	}
	if lister == nil {
		return nil, errors.New("membership: manager needs a key lister")
	}
	if len(addrs) != cl.Nodes() {
		return nil, fmt.Errorf("membership: %d addrs for %d nodes", len(addrs), cl.Nodes())
	}
	cfg = cfg.withDefaults()
	m := &Manager{
		cl:     cl,
		lister: lister,
		cfg:    cfg,
		missed: make([]int, len(addrs)),
	}
	m.members = make([]wire.Member, len(addrs))
	for i, addr := range addrs {
		m.members[i] = wire.Member{ID: uint32(i), State: wire.MemberAlive, Addr: addr}
	}
	m.replicas = m.place()
	cl.SetReplicaSource(m.ReplicasOf)
	if reg := cfg.Metrics; reg != nil {
		m.joins = reg.Counter("membership.joins")
		m.leaves = reg.Counter("membership.leaves")
		m.deaths = reg.Counter("membership.deaths")
		m.promotions = reg.Counter("membership.promotions")
		m.replicaKeys = reg.Counter("membership.replica_keys")
		m.belowRF = reg.Gauge("membership.slots_below_rf")
	}
	return m, nil
}

// Epoch returns the current view epoch (0 until Bootstrap).
func (m *Manager) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// Members returns a copy of the member table.
func (m *Manager) Members() []wire.Member {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]wire.Member, len(m.members))
	copy(out, m.members)
	return out
}

// ReplicasOf returns slot's replica nodes, owner first — the client's
// replica source and the tests' placement oracle.
func (m *Manager) ReplicasOf(slot int) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if slot < 0 || slot >= len(m.replicas) {
		return nil
	}
	out := make([]int, len(m.replicas[slot]))
	copy(out, m.replicas[slot])
	return out
}

// Bootstrap publishes the initial view (epoch 1) to every node's agent.
// Call once, after the nodes and their agents are up and before traffic:
// writes before the agents hold a view are not fanned out.
func (m *Manager) Bootstrap() (Report, error) {
	return m.apply(Report{Node: -1}, nil, -1)
}

// aliveLocked returns the serving-member mask, indexed by node id. Caller
// holds m.mu.
func (m *Manager) aliveLocked() []bool {
	alive := make([]bool, len(m.members))
	for i := range m.members {
		alive[i] = m.members[i].State == wire.MemberAlive
	}
	return alive
}

// slotCounts returns how many slots each of n nodes owns.
func slotCounts(owners []int, n int) []int {
	counts := make([]int, n)
	for _, o := range owners {
		counts[o]++
	}
	return counts
}

// pickLoaded returns the eligible node owning the most slots (most=true)
// or the fewest, ties to the lowest id; -1 when no node is eligible.
func pickLoaded(counts []int, eligible []bool, most bool) int {
	best := -1
	for n, ok := range eligible {
		if !ok {
			continue
		}
		if best < 0 || (most && counts[n] > counts[best]) || (!most && counts[n] < counts[best]) {
			best = n
		}
	}
	return best
}

// place computes the replica table for the current ring and member state.
// Caller holds m.mu.
func (m *Manager) place() [][]int {
	return placeReplicas(m.cl.Ring().Owners(), m.aliveLocked(), m.cfg.ReplicationFactor)
}

// Join adds the node at addr to the cluster: grow the client and ring,
// hand the newcomer its fair share of slots (bounded movement: at most
// ⌈slots/nodes⌉ migrations, each through drain → copy → flip), re-place
// replicas, and push the new view. A handoff that fails partway still
// commits the slots that moved.
func (m *Manager) Join(addr string) (Report, error) {
	id, err := m.cl.AddNode(addr)
	if err != nil {
		return Report{}, err
	}
	m.missed = append(m.missed, 0)
	m.mu.Lock()
	m.members = append(m.members, wire.Member{ID: uint32(id), State: wire.MemberAlive, Addr: addr})
	donors := m.aliveLocked()
	m.mu.Unlock()
	aliveCount := 0
	for _, ok := range donors {
		if ok {
			aliveCount++
		}
	}
	donors[id] = false

	// Plan the handoff against a local ownership book so the sequence is a
	// pure function of the view: the donor with the most slots (ties to the
	// lowest id) gives up its lowest-numbered slot, repeated until the
	// newcomer holds ⌊slots/alive⌋ — never more than the ⌈slots/nodes⌉
	// movement bound.
	owners := m.cl.Ring().Owners()
	counts := slotCounts(owners, len(donors))
	var plan []cluster.Move
	for k := len(owners) / aliveCount; k > 0; k-- {
		donor := pickLoaded(counts, donors, true)
		if donor < 0 || counts[donor] <= 1 {
			break // never strip a node of its last slot
		}
		slot := slices.Index(owners, donor)
		owners[slot] = id
		counts[donor]--
		plan = append(plan, cluster.Move{Slot: slot, From: donor, To: id})
	}

	report, err := m.apply(Report{Node: id}, plan, -1)
	m.joins.Inc()
	m.observe(obs.Event{Type: obs.EvNodeJoin, Tick: report.Epoch, Set: id, Life: uint64(len(report.Moves))})
	return report, err
}

// Leave removes node gracefully: migrate every slot it owns to the
// remaining members (fewest-loaded first — bounded by the ⌈slots/nodes⌉
// slots a balanced node owns), mark it left, re-place replicas, and push
// the view. A handoff that fails partway commits the slots that moved;
// the node stays marked left, owning the rest.
func (m *Manager) Leave(node int) (Report, error) {
	m.mu.Lock()
	if node < 0 || node >= len(m.members) || m.members[node].State != wire.MemberAlive {
		m.mu.Unlock()
		return Report{}, fmt.Errorf("membership: leave of non-member node %d", node)
	}
	m.members[node].State = wire.MemberLeft
	recipients := m.aliveLocked()
	m.mu.Unlock()

	owners := m.cl.Ring().Owners()
	counts := slotCounts(owners, len(recipients))
	if pickLoaded(counts, recipients, false) < 0 {
		return Report{}, fmt.Errorf("membership: node %d is the last member", node)
	}
	var plan []cluster.Move
	for s, o := range owners {
		if o == node {
			to := pickLoaded(counts, recipients, false)
			counts[to]++
			plan = append(plan, cluster.Move{Slot: s, From: node, To: to})
		}
	}

	report, err := m.apply(Report{Node: node}, plan, -1)
	m.leaves.Inc()
	m.observe(obs.Event{Type: obs.EvNodeLeave, Tick: report.Epoch, Set: node, Life: uint64(len(report.Moves))})
	return report, err
}

// Tick runs one heartbeat round: ping every serving member and count its
// consecutive misses. An answered probe resets the count; a node whose
// count reaches SuspectAfter fails over, and a failed-over node is no
// longer serving, so Tick never probes it again — it fails over once. It
// returns one Report per failover (usually none).
func (m *Manager) Tick() []Report {
	m.mu.Lock()
	alive := m.aliveLocked()
	m.mu.Unlock()

	var reports []Report
	for id, ok := range alive {
		if !ok {
			continue
		}
		if m.cl.NodeClient(id).Ping() == nil {
			m.missed[id] = 0
			continue
		}
		if m.missed[id]++; m.missed[id] >= m.cfg.SuspectAfter {
			reports = append(reports, m.failover(id))
		}
	}
	return reports
}

// failover handles a dead node: mark it dead, promote each of its slots to
// the slot's first surviving replica (a pure ownership flip — the replica
// already holds the fanned-out writes, so no acked write is lost), then
// re-place and backfill replicas and push the view. A slot with no
// surviving replica falls back to the least-loaded member with its data
// lost — the cost of running below the replication factor.
func (m *Manager) failover(node int) Report {
	m.mu.Lock()
	m.members[node].State = wire.MemberDead
	reps := m.replicas
	alive := m.aliveLocked()
	m.mu.Unlock()
	m.deaths.Inc()

	owners := m.cl.Ring().Owners()
	counts := slotCounts(owners, len(alive))
	var plan []cluster.Move
	for s, o := range owners {
		if o != node {
			continue
		}
		to := -1
		if s < len(reps) {
			for _, r := range reps[s][1:] {
				if r < len(alive) && alive[r] {
					to = r
					break
				}
			}
		}
		if to < 0 {
			to = pickLoaded(counts, alive, false)
		}
		if to < 0 {
			continue // no members left; nothing to promote to
		}
		counts[to]++
		plan = append(plan, cluster.Move{Slot: s, From: node, To: to})
	}

	report, _ := m.apply(Report{Node: node}, plan, node)
	m.promotions.Add(uint64(len(report.Moves)))
	m.observe(obs.Event{Type: obs.EvNodeDead, Tick: report.Epoch, Set: node, Life: uint64(len(report.Moves))})
	for _, p := range report.Moves {
		m.observe(obs.Event{Type: obs.EvReplicaPromote, Tick: report.Epoch, Set: p.Slot, ScS: p.From, Partner: p.To})
	}
	return report
}

// apply is the one writer of ring ownership. It runs a planned handoff in
// order — a pure ownership flip when the old owner is dead (the node being
// failed over; -1 when none), a MoveSlot otherwise — stops at the first
// failure, and commits whatever moved. report carries the transition's
// Node; apply fills in Moves, Epoch and ReplicaKeys.
func (m *Manager) apply(report Report, plan []cluster.Move, dead int) (Report, error) {
	var moveErr error
	for _, mv := range plan {
		var err error
		if mv.From == dead {
			err = m.cl.Ring().Move(mv.Slot, mv.To)
		} else {
			mv, err = m.cl.MoveSlot(m.lister, mv.Slot, mv.From, mv.To, chunkSize)
		}
		if err != nil {
			moveErr = fmt.Errorf("membership: handoff of slot %d from node %d to %d: %w", mv.Slot, mv.From, mv.To, err)
			break
		}
		report.Moves = append(report.Moves, mv)
	}
	return report, errors.Join(moveErr, m.commit(&report, dead))
}

// commit recomputes replica placement for the current ring and member
// state, bumps the view epoch, pushes the view to every serving agent, and
// backfills slot data onto newly placed followers, recording the epoch,
// the copied key count and the slots below the replication factor in
// report (the last also in the membership.slots_below_rf gauge). dead (-1
// when none) lets failover's backfill skip copies whose source is gone.
// report.Moves are the transition's ownership changes: a move's old owner
// no longer holds the slot (MoveSlot deleted its copy, or it is dead), so
// it counts as a new follower if placement picks it again.
func (m *Manager) commit(report *Report, dead int) error {
	m.mu.Lock()
	old := slices.Clone(m.replicas)
	for _, mv := range report.Moves {
		old[mv.Slot] = slices.DeleteFunc(slices.Clone(old[mv.Slot]), func(n int) bool { return n == mv.From })
	}
	m.replicas = m.place()
	m.epoch++
	epoch := m.epoch
	newRep := m.replicas
	members := make([]wire.Member, len(m.members))
	copy(members, m.members)
	m.mu.Unlock()

	pushErr := m.pushAll(epoch, members, newRep)

	// Backfill: copy slot data onto followers that are new in this view.
	// The source is the slot's current owner.
	report.Epoch = epoch
	owners := m.cl.Ring().Owners()
	for s, set := range newRep {
		if len(set) < m.cfg.ReplicationFactor {
			report.BelowRF++
		}
		var oldSet []int
		if s < len(old) {
			oldSet = old[s]
		}
		for _, f := range set[1:] {
			if slices.Contains(oldSet, f) {
				continue // already held a copy in the old view
			}
			owner := owners[s]
			if owner == dead || owner == f {
				continue
			}
			_, copied, err := m.cl.CopySlot(m.lister, s, owner, f, chunkSize)
			if err != nil {
				if pushErr == nil {
					pushErr = err
				}
				continue
			}
			report.ReplicaKeys += copied
			m.replicaKeys.Add(uint64(copied))
			m.observe(obs.Event{Type: obs.EvReplicaPlace, Tick: epoch, Set: s, ScS: owner, Partner: f, Life: uint64(copied)})
		}
	}
	m.belowRF.Set(float64(report.BelowRF))
	return pushErr
}

// pushAll sends the view to every serving member's agent. Best effort: all
// sends are attempted, the first failure is returned (a node that misses a
// push catches up at the next transition; epoch ordering makes redelivery
// harmless).
func (m *Manager) pushAll(epoch uint64, members []wire.Member, replicas [][]int) error {
	view := make([]wire.ReplicaSet, len(replicas))
	for s, set := range replicas {
		rs := wire.ReplicaSet{Slot: uint32(s), Replicas: make([]uint32, len(set))}
		for i, n := range set {
			rs.Replicas[i] = uint32(n)
		}
		view[s] = rs
	}
	var first error
	for i := range members {
		if members[i].State != wire.MemberAlive {
			continue
		}
		if err := m.cl.NodeClient(i).PushMembership(epoch, members, view); err != nil && first == nil {
			first = fmt.Errorf("membership: pushing view %d to node %d: %w", epoch, i, err)
		}
	}
	return first
}

// observe forwards an event to the configured Observer. Transitions run on
// one goroutine, so no serialization lock is needed.
func (m *Manager) observe(e obs.Event) {
	if m.cfg.Observer != nil {
		m.cfg.Observer.Event(e)
	}
}
