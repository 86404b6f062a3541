package membership

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Manager is the cluster's control plane and the only writer of slot
// ownership: it writes the authoritative view — member table, replica
// placement (owner first) and epoch. Every transition — Join, Leave,
// failover from Tick — plans its moves as a pure function of the view and
// hands the plan to one executor, apply. A move off a live node copies the
// slot while the old owner serves it, then pushes the view that flips the
// owner — the old owner answers the slot's writes MOVED from then on — and
// only then drops the old owner's copy; a move off the node being failed
// over is a pure flip, the data already on the promoted replica through
// the agents' synchronous write fan-out.
//
// Transitions (Join/Leave/Tick) are driven by one goroutine — the cluster
// owner's control loop — and are not safe to run concurrently with each
// other. View is safe from any goroutine.
type Manager struct {
	cl     *cluster.Client
	lister cluster.KeyLister
	cfg    Config

	// view is the current view, replaced whole by each push.
	view atomic.Pointer[wire.View]

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

// New builds a manager over cl's node set. addrs[i] is node i's address
// (the same table cl was built from). Its first view places replicas over
// the epoch-0 view's home owners; call Bootstrap to push it to the nodes'
// agents.
func New(cl *cluster.Client, lister cluster.KeyLister, addrs []string, cfg Config) (*Manager, error) {
	if cl == nil {
		return nil, errors.New("membership: manager needs a cluster client")
	}
	if lister == nil {
		return nil, errors.New("membership: manager needs a key lister")
	}
	if n := len(cl.View().Members); len(addrs) != n {
		return nil, fmt.Errorf("membership: %d addrs for %d nodes", len(addrs), n)
	}
	cfg = cfg.withDefaults()
	m := &Manager{
		cl:     cl,
		lister: lister,
		cfg:    cfg,
		missed: make([]int, len(addrs)),
	}
	v := cl.Ring().InitialView(addrs)
	v.Replicas = placeReplicas(v.Owners(), aliveMask(v.Members), cfg.ReplicationFactor)
	m.view.Store(v)
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

// View returns the manager's current view. It is shared: the caller must
// not change it.
func (m *Manager) View() *wire.View { return m.view.Load() }

// Bootstrap publishes the initial view (epoch 1) to every node's agent.
// Call once, after the nodes and their agents are up and before traffic:
// writes before the agents hold a view are not fanned out.
func (m *Manager) Bootstrap() (Report, error) {
	return m.apply(Report{Node: -1}, m.View().Members, nil, -1)
}

// aliveMask returns the serving-member mask, indexed by node id.
func aliveMask(members []wire.Member) []bool {
	alive := make([]bool, len(members))
	for i := range members {
		alive[i] = members[i].State == wire.MemberAlive
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

// Join adds the node at addr to the cluster: dial it, hand it its fair
// share of slots (bounded movement: at most ⌈slots/nodes⌉ migrations),
// re-place replicas, and push the new view. A handoff that fails partway
// still commits the slots that moved.
func (m *Manager) Join(addr string) (Report, error) {
	id, err := m.cl.AddNode(addr) // the view's members and cl's table grow in step
	if err != nil {
		return Report{}, err
	}
	cur := m.View()
	m.missed = append(m.missed, 0)
	members := append(slices.Clone(cur.Members), wire.Member{State: wire.MemberAlive, Addr: addr})
	donors := aliveMask(members)
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
	owners := cur.Owners()
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

	report, err := m.apply(Report{Node: id}, members, plan, -1)
	m.joins.Inc()
	m.observe(obs.Event{Type: obs.EvNodeJoin, Tick: report.Epoch, Set: id, Life: uint64(len(report.Moves))})
	return report, err
}

// Leave removes node gracefully: migrate every slot it owns to the
// remaining members (fewest-loaded first — bounded by the ⌈slots/nodes⌉
// slots a balanced node owns), mark it left, re-place replicas, and push
// the view, to the leaving node too. A handoff that fails partway commits
// the slots that moved; the node is marked left, owning the rest.
func (m *Manager) Leave(node int) (Report, error) {
	cur := m.View()
	if !cur.Alive(node) {
		return Report{}, fmt.Errorf("membership: leave of non-member node %d", node)
	}
	members := slices.Clone(cur.Members)
	members[node].State = wire.MemberLeft
	recipients := aliveMask(members)

	owners := cur.Owners()
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

	report, err := m.apply(Report{Node: node}, members, plan, -1)
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
	var reports []Report
	for id, ok := range aliveMask(m.View().Members) {
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
	cur := m.View()
	members := slices.Clone(cur.Members)
	members[node].State = wire.MemberDead
	alive := aliveMask(members)
	m.deaths.Inc()

	owners := cur.Owners()
	counts := slotCounts(owners, len(alive))
	var plan []cluster.Move
	for s, o := range owners {
		if o != node {
			continue
		}
		to := -1
		for _, r := range cur.Replicas[s][1:] {
			if alive[r] {
				to = r
				break
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

	report, _ := m.apply(Report{Node: node}, members, plan, node)
	m.promotions.Add(uint64(len(report.Moves)))
	m.observe(obs.Event{Type: obs.EvNodeDead, Tick: report.Epoch, Set: node, Life: uint64(len(report.Moves))})
	for _, p := range report.Moves {
		m.observe(obs.Event{Type: obs.EvReplicaPromote, Tick: report.Epoch, Set: p.Slot, ScS: p.From, Partner: p.To})
	}
	return report
}

// apply is the one writer of slot ownership. It runs a planned handoff in
// order — a pure flip when the old owner is dead (the node being failed
// over; -1 when none), a copy otherwise — stops at the first failure, and
// commits what moved under members, the transition's member table, into
// report. Every copy's target first joins its slot's replica set in a view
// pushed before any copy: the old owner, which acks the slot's writes
// until the commit fences it, fans each one out to the target, so none is
// acked that the copy misses, and the copy yields to them.
func (m *Manager) apply(report Report, members []wire.Member, plan []cluster.Move, dead int) (Report, error) {
	cur := m.View()
	next := &wire.View{Epoch: cur.Epoch + 1, Replicas: slices.Clone(cur.Replicas),
		Members: append(slices.Clone(cur.Members), members[len(cur.Members):]...)}
	var moveErr error
	for i, mv := range plan {
		if mv.From == dead {
			continue
		}
		if _, err := m.admit(next, mv.Slot, mv.To); err != nil {
			moveErr, plan = fmt.Errorf("membership: handoff of slot %d from node %d to %d: %w", mv.Slot, mv.From, mv.To, err), plan[:i]
			break
		}
	}
	var pushErr error
	if !slices.EqualFunc(next.Replicas, cur.Replicas, slices.Equal) {
		pushErr = m.publish(next, nil)
	}
	for _, mv := range plan {
		if mv.From != dead {
			var err error
			if mv.Keys, err = m.cl.CopySlot(m.lister, mv.Slot, mv.From, mv.To, chunkSize); err != nil {
				moveErr = fmt.Errorf("membership: handoff of slot %d from node %d to %d: %w", mv.Slot, mv.From, mv.To, err)
				break
			}
		}
		report.Moves = append(report.Moves, mv)
	}
	return report, errors.Join(pushErr, moveErr, m.commit(&report, members, dead))
}

// admit adds node to slot's replica set in v, a view not yet pushed, after
// clearing what node holds of the slot from an earlier stay (CopySlot
// yields to what it finds there), and reports whether it did: a node
// already in the set is left be.
func (m *Manager) admit(v *wire.View, slot, node int) (bool, error) {
	if slices.Contains(v.Replicas[slot], node) {
		return false, nil
	}
	if err := m.cl.DropSlot(m.lister, slot, node, chunkSize); err != nil {
		return false, err
	}
	v.Replicas[slot] = append(slices.Clone(v.Replicas[slot]), node)
	return true, nil
}

// commit recomputes replica placement for the moved owners under members,
// admits the new followers, bumps the view epoch and pushes the view — to
// the moves' live old owners too, which fences them — then drops each old
// owner's copy of its slot unless placement keeps it as a follower, and
// backfills the new followers. It records the epoch, the copied key count
// and the slots below the replication factor in report (the last also in
// the membership.slots_below_rf gauge). dead (-1 when none) is the node
// being failed over, whose copies are gone.
func (m *Manager) commit(report *Report, members []wire.Member, dead int) error {
	cur := m.View()
	owners := cur.Owners()
	for _, mv := range report.Moves {
		owners[mv.Slot] = mv.To
	}
	placed := placeReplicas(owners, aliveMask(members), m.cfg.ReplicationFactor)
	// A move's live old owner is pushed the view, which fences it; it keeps
	// its copy only as a follower of the new view.
	next := &wire.View{Epoch: cur.Epoch + 1, Members: members, Replicas: slices.Clone(cur.Replicas)}
	var fenced []int
	var dropped []cluster.Move
	for _, mv := range report.Moves {
		if mv.From != dead {
			fenced = append(fenced, mv.From)
			if slices.Contains(placed[mv.Slot], mv.From) {
				continue
			}
			dropped = append(dropped, mv)
		}
		next.Replicas[mv.Slot] = slices.DeleteFunc(slices.Clone(next.Replicas[mv.Slot]), func(n int) bool { return n == mv.From })
	}
	// Every replica new to its slot is admitted before the push, and the
	// followers among them are backfilled after it.
	var err error
	var fresh [][2]int // (slot, follower)
	for s, set := range placed {
		if len(set) < m.cfg.ReplicationFactor {
			report.BelowRF++
		}
		for i, n := range set {
			added, aerr := m.admit(next, s, n)
			err = cmp.Or(err, aerr)
			if added && i > 0 {
				fresh = append(fresh, [2]int{s, n})
			}
		}
	}
	next.Replicas = placed
	err = cmp.Or(err, m.publish(next, fenced))
	for _, mv := range dropped {
		err = cmp.Or(err, m.cl.DropSlot(m.lister, mv.Slot, mv.From, chunkSize))
	}

	// Backfill: copy slot data onto the followers new in this view. The
	// source is the slot's owner.
	report.Epoch = next.Epoch
	for _, sf := range fresh {
		s, f, owner := sf[0], sf[1], placed[sf[0]][0]
		copied, cerr := m.cl.CopySlot(m.lister, s, owner, f, chunkSize)
		if cerr != nil {
			err = cmp.Or(err, cerr)
			continue
		}
		report.ReplicaKeys += copied
		m.replicaKeys.Add(uint64(copied))
		m.observe(obs.Event{Type: obs.EvReplicaPlace, Tick: next.Epoch, Set: s, ScS: owner, Partner: f, Life: uint64(copied)})
	}
	m.belowRF.Set(float64(report.BelowRF))
	return err
}

// publish makes v the manager's view and pushes it to every serving member
// of v and to the extra nodes. Best effort: all sends are attempted, the
// first failure is returned (a node that misses a push catches up at the
// next transition; epoch ordering makes redelivery harmless).
func (m *Manager) publish(v *wire.View, extra []int) error {
	m.view.Store(v)
	var first error
	for i := range v.Members {
		if !v.Alive(i) && !slices.Contains(extra, i) {
			continue
		}
		if err := m.cl.PushView(i, *v); err != nil && first == nil {
			first = fmt.Errorf("membership: pushing view %d to node %d: %w", v.Epoch, i, err)
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
