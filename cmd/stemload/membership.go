package main

// The membership scenarios (-scenario failover, -scenario scaleout): the
// cluster's node-lifecycle claims measured end to end.
//
//   - failover (kill a node): a 3-node cluster with replication factor 2
//     takes a full write load, loses one node mid-run, keeps acking writes
//     through the replica-retry path while the failure detector converges,
//     and then replays every acked key. The twin baseline run never loses a
//     node. The claims: zero lost acknowledged writes, and a post-failover
//     hit rate within 5 percentage points of the undisturbed run's (and at
//     least 0.90 absolute) — synchronous replica fan-out means promotion is
//     a pure ownership flip, the data is already on the survivor.
//
//   - scaleout (add a node): a loaded 3-node cluster admits a fourth. The
//     claims: the handoff moves at most ⌈slots/nodes⌉ slots (bounded
//     movement — the ring's fixed slot points make a join a short sequence
//     of drain→copy→flip migrations, not a reshuffle), and the aggregate
//     hit rate recovers to at least the static 3-node baseline measured
//     just before the join.
//
// Both scenarios run on a membership.Rig (loopback nodes, in-process manager
// and agents) and are op-driven: the kill lands between write phases and failover
// is driven by explicit manager ticks, so a rerun with the same seed
// replays the same lifecycle.

import (
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/membership"
	"repro/internal/stemcache"
)

// The rig's shape. Fixed: no caller ever ran another. -capacity oversizes
// the per-node caches relative to memberKeys so nothing evicts: a missing
// key measures replication, never cache pressure.
const (
	// memberNodes is the starting cluster size; scaleout joins one more.
	memberNodes = 3
	// memberReplication is copies per slot including the owner.
	memberReplication = 2
	// memberKeys is the acked write count each scenario replays.
	memberKeys = 400
	// memberVNodes is ring slots per starting node when -vnodes is 0.
	memberVNodes = 4
)

// failoverResult is the kill-a-node scenario's measured outcome.
type failoverResult struct {
	// AckedWrites is every Set the cluster acknowledged, including the
	// batch written against the dead owner mid-failover; LostWrites is how
	// many of them the post-failover replay could not read back.
	AckedWrites int `json:"acked_writes"`
	LostWrites  int `json:"lost_writes"`
	// PromotedSlots is how many ownership flips the failover performed.
	PromotedSlots int `json:"promoted_slots"`
	// BaselineHitRate is the twin no-failure run's readback hit rate;
	// DeltaPP is baseline minus failover in percentage points (the
	// acceptance bound is 5).
	BaselineHitRate float64 `json:"baseline_hit_rate"`
	FailoverHitRate float64 `json:"failover_hit_rate"`
	DeltaPP         float64 `json:"hit_rate_delta_pp"`
	Seconds         float64 `json:"seconds"`
}

// scaleoutResult is the add-a-node scenario's measured outcome.
type scaleoutResult struct {
	// SlotsMoved is the join handoff's size; MoveBound is ⌈slots/nodes⌉
	// counting the joiner — bounded movement means SlotsMoved <= MoveBound.
	SlotsMoved int `json:"slots_moved"`
	MoveBound  int `json:"move_bound"`
	// StaticHitRate is measured on the 3-node ring just before the join,
	// ScaledHitRate on the 4-node ring just after; recovery means scaled
	// >= static. LostKeys is how many keys the migration dropped (want 0).
	StaticHitRate float64 `json:"static_hit_rate"`
	ScaledHitRate float64 `json:"scaled_hit_rate"`
	LostKeys      int     `json:"lost_keys"`
	Seconds       float64 `json:"seconds"`
}

// startMemberRig boots the scenarios' cluster: eviction-proof 8-way caches, a
// fail-fast connection template (a dead node surfaces as one transient
// error, not a retry storm), and the membership tier bootstrapped.
func startMemberRig(cfg loadConfig) (*membership.Rig, error) {
	vnodes := cfg.VNodes
	if vnodes <= 0 {
		vnodes = memberVNodes
	}
	rig, err := membership.StartRig(memberNodes,
		cluster.NodeConfig{Cache: stemcache.Config{Capacity: cfg.Capacity, Shards: 2, Ways: 8}},
		cluster.Config{
			VNodes: vnodes, Seed: cfg.Seed,
			Client: client.Config{Retries: -1, DialTimeout: 500 * time.Millisecond, OpTimeout: 2 * time.Second, DemandEvery: 16},
		})
	if err != nil {
		return nil, err
	}
	if err := rig.Bootstrap(membership.Config{ReplicationFactor: memberReplication, SuspectAfter: 2}); err != nil {
		rig.Close()
		return nil, err
	}
	return rig, nil
}

func memLoadKey(i int) string { return fmt.Sprintf("mem-%05d", i) }
func memLoadVal(i int) []byte { return []byte(fmt.Sprintf("val-%05d", i)) }

// writeRange stores keys [lo, hi); every successful return is an ack the
// cluster must not lose.
func writeRange(cl *cluster.Client, lo, hi int) (acked int, err error) {
	for i := lo; i < hi; i++ {
		if err := cl.Set(memLoadKey(i), memLoadVal(i)); err != nil {
			return acked, fmt.Errorf("set %q: %w", memLoadKey(i), err)
		}
		acked++
	}
	return acked, nil
}

// readRange replays keys [lo, hi) and returns the found count; a wrong
// value is an error, not a miss.
func readRange(cl *cluster.Client, lo, hi int) (found int, err error) {
	for i := lo; i < hi; i++ {
		v, ok, err := cl.Get(memLoadKey(i))
		if err != nil {
			return found, fmt.Errorf("get %q: %w", memLoadKey(i), err)
		}
		if !ok {
			continue
		}
		if string(v) != string(memLoadVal(i)) {
			return found, fmt.Errorf("get %q returned %q, want %q", memLoadKey(i), v, memLoadVal(i))
		}
		found++
	}
	return found, nil
}

// failoverScenario runs the twin kill/no-kill comparison.
func failoverScenario(cfg loadConfig) (any, []claim, error) {
	start := wallClock()

	// Baseline: same cluster, same writes, nobody dies.
	baseline, err := undisturbedHitRate(cfg)
	if err != nil {
		return nil, nil, err
	}
	res := failoverResult{BaselineHitRate: baseline}

	// The kill run: lose node 1 after the initial writes, keep writing a
	// quarter more against the dead owner (replica retry must ack them),
	// tick the detector until it fires, then replay everything.
	rig, err := startMemberRig(cfg)
	if err != nil {
		return nil, nil, err
	}
	defer rig.Close()
	acked, err := writeRange(rig.Client(), 0, memberKeys)
	if err != nil {
		return nil, nil, err
	}
	if err := rig.Kill(1); err != nil {
		return nil, nil, err
	}
	more, err := writeRange(rig.Client(), memberKeys, memberKeys+memberKeys/4)
	if err != nil {
		return nil, nil, err
	}
	res.AckedWrites = acked + more
	for i := 0; i < 4 && res.PromotedSlots == 0; i++ {
		for _, rep := range rig.Manager().Tick() {
			res.PromotedSlots += len(rep.Moves)
		}
	}
	found, err := readRange(rig.Client(), 0, res.AckedWrites)
	if err != nil {
		return nil, nil, err
	}
	res.LostWrites = res.AckedWrites - found
	res.FailoverHitRate = float64(found) / float64(res.AckedWrites)
	res.DeltaPP = (res.BaselineHitRate - res.FailoverHitRate) * 100
	res.Seconds = wallClock().Sub(start).Seconds()

	fmt.Printf("failover      %d acked writes, %d lost, %d slots promoted (%.2fs)\n",
		res.AckedWrites, res.LostWrites, res.PromotedSlots, res.Seconds)
	fmt.Printf("  hit rate    baseline %.4f  post-failover %.4f  delta %+.2fpp\n",
		res.BaselineHitRate, res.FailoverHitRate, res.DeltaPP)
	return res, []claim{
		exactly("lost_acked_writes", float64(res.LostWrites), 0),
		atLeast("promoted_slots", float64(res.PromotedSlots), 1),
		atMost("hit_rate_delta_pp", res.DeltaPP, 5),
		atLeast("failover_hit_rate", res.FailoverHitRate, 0.90),
	}, nil
}

// undisturbedHitRate writes and replays memberKeys keys on a rig nothing
// happens to.
func undisturbedHitRate(cfg loadConfig) (float64, error) {
	rig, err := startMemberRig(cfg)
	if err != nil {
		return 0, err
	}
	defer rig.Close()
	if _, err := writeRange(rig.Client(), 0, memberKeys); err != nil {
		return 0, err
	}
	found, err := readRange(rig.Client(), 0, memberKeys)
	return float64(found) / memberKeys, err
}

// scaleoutScenario measures the static baseline, joins a node, and
// measures again.
func scaleoutScenario(cfg loadConfig) (any, []claim, error) {
	var res scaleoutResult
	start := wallClock()
	rig, err := startMemberRig(cfg)
	if err != nil {
		return nil, nil, err
	}
	defer rig.Close()
	if _, err := writeRange(rig.Client(), 0, memberKeys); err != nil {
		return nil, nil, err
	}
	staticFound, err := readRange(rig.Client(), 0, memberKeys)
	if err != nil {
		return nil, nil, err
	}
	res.StaticHitRate = float64(staticFound) / memberKeys

	rep, err := rig.Join()
	if err != nil {
		return nil, nil, err
	}
	res.SlotsMoved = len(rep.Moves)
	slots, nodes := rig.Client().Ring().Slots(), memberNodes+1
	res.MoveBound = (slots + nodes - 1) / nodes
	scaledFound, err := readRange(rig.Client(), 0, memberKeys)
	if err != nil {
		return nil, nil, err
	}
	res.ScaledHitRate = float64(scaledFound) / memberKeys
	res.LostKeys = memberKeys - scaledFound
	res.Seconds = wallClock().Sub(start).Seconds()

	fmt.Printf("scaleout      %d/%d slots moved, %d keys lost (%.2fs)\n",
		res.SlotsMoved, res.MoveBound, res.LostKeys, res.Seconds)
	fmt.Printf("  hit rate    static %.4f  scaled %.4f\n", res.StaticHitRate, res.ScaledHitRate)
	return res, []claim{
		atLeast("slots_moved", float64(res.SlotsMoved), 1),
		atMost("slots_moved_minus_bound", float64(res.SlotsMoved-res.MoveBound), 0),
		exactly("lost_keys", float64(res.LostKeys), 0),
		atLeast("scaled_minus_static_hit_rate", res.ScaledHitRate-res.StaticHitRate, 0),
	}, nil
}
