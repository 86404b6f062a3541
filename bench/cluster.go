package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/membership"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/stemcache"
)

// cluster-rf2: three in-process nodes with membership agents and a manager
// at replication factor 2, driven through one routing cluster.Client per
// worker. Nodes are sized so that the run's keys (both copies) fit: a write
// the cluster acknowledged must be readable at the end, and the few misses
// that per-set overflow can still cause are bounded by the nodes' own
// eviction counts.
const (
	clusterNodes    = 3
	clusterKeyCap   = 4096    // the hotspot-shift stream's capacity parameter: 3072 hot keys, shifting every 24576 draws
	clusterNodeCap  = 1 << 16 // entries per node
	clusterOpsPerS  = 30_000  // ops per worker per second of budget
	clusterWarmPerS = 1_000
	mgetKeys        = 16
	sidePassOps     = 2000
)

type clKind uint8

const (
	clGet  clKind = iota // 70 %
	clSet                // 25 %
	clMGet               // 5 %, 16 keys
)

// clOp is one pre-generated cluster operation: its keys are seq[at:at+n].
type clOp struct {
	kind clKind
	at   int32
}

func (o clOp) keys() int {
	if o.kind == clMGet {
		return mgetKeys
	}
	return 1
}

// clusterRig is the self-hosted cluster.
type clusterRig struct {
	nodes  []*cluster.Node
	agents []*membership.Agent
	ctl    *cluster.Client   // the manager's client
	cls    []*cluster.Client // one per worker
	sinks  []*echoSink
	mgr    *membership.Manager
	reg    *obs.Registry
}

// clusterTpl fails fast, as stemload's membership rig does: nothing dies in
// this workload, so a retry would only hide a bug.
func clusterTpl() client.Config {
	return client.Config{Retries: -1, DialTimeout: 500 * time.Millisecond, OpTimeout: 2 * time.Second, PoolSize: 2}
}

func startCluster(seed uint64, nWorkers, rf int, traced bool) (*clusterRig, error) {
	r := &clusterRig{}
	if traced {
		r.reg = obs.NewRegistry()
	}
	ok := false
	defer func() {
		if !ok {
			r.close()
		}
	}()
	addrs := make([]string, clusterNodes)
	for i := range addrs {
		node, err := cluster.StartNode(i, cluster.NodeConfig{
			Cache:  stemcache.Config{Capacity: clusterNodeCap, Seed: cluster.NodeSeed(seed, i)},
			Server: server.Config{Metrics: r.reg},
		})
		if err != nil {
			return nil, err
		}
		r.nodes = append(r.nodes, node)
		addrs[i] = node.Addr()
	}
	newClient := func(tpl client.Config) (*cluster.Client, error) {
		return cluster.NewClient(cluster.Config{Addrs: addrs, Seed: seed, Client: tpl})
	}
	var err error
	if r.ctl, err = newClient(clusterTpl()); err != nil {
		return nil, err
	}
	for i, node := range r.nodes {
		r.agents = append(r.agents, membership.NewAgent(i, r.ctl.Ring(), node.Server(), clusterTpl()))
	}
	lister := func(n int) ([]string, error) { return r.nodes[n].Keys(), nil }
	if r.mgr, err = membership.New(r.ctl, lister, addrs, membership.Config{ReplicationFactor: rf}); err != nil {
		return nil, err
	}
	if _, err := r.mgr.Bootstrap(); err != nil {
		return nil, err
	}
	for w := 0; w < nWorkers; w++ {
		sink := &echoSink{serverH: newHist(), netH: newHist()}
		tpl := clusterTpl()
		if traced {
			tpl.TraceEvery, tpl.OnTrace = 1, sink.onTrace
		}
		cl, err := newClient(tpl)
		if err != nil {
			return nil, err
		}
		r.cls = append(r.cls, cl)
		r.sinks = append(r.sinks, sink)
		if err := cl.Ping(); err != nil {
			return nil, fmt.Errorf("cluster unreachable: %w", err)
		}
	}
	ok = true
	return r, nil
}

func (r *clusterRig) close() {
	for _, a := range r.agents {
		a.Close()
	}
	for _, cl := range r.cls {
		cl.Close()
	}
	if r.ctl != nil {
		r.ctl.Close()
	}
	for _, n := range r.nodes {
		n.Close()
	}
}

// stats sums the nodes' cache counters.
func (r *clusterRig) stats() (sum stemcache.Stats, perNode []stemcache.Stats) {
	for _, n := range r.nodes {
		st := n.Cache().Stats()
		perNode = append(perNode, st)
		sum.Gets += st.Gets
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.Puts += st.Puts
		sum.Evictions += st.Evictions
		sum.Expirations += st.Expirations
		sum.SecondaryHits += st.SecondaryHits
		sum.ShadowHits += st.ShadowHits
		sum.PolicySwaps += st.PolicySwaps
		sum.Couplings += st.Couplings
		sum.Spills += st.Spills
		sum.TakerSets += st.TakerSets
		sum.GiverSets += st.GiverSets
		sum.CoupledSets += st.CoupledSets
	}
	return sum, perNode
}

// clusterInputs is set-up's product.
type clusterInputs struct {
	tab    *keyTable
	seqs   [][]uint32
	ops    [][]clOp
	keygen float64
}

func genCluster(seed uint64, nWorkers, nOps int) (*clusterInputs, error) {
	in := &clusterInputs{ops: make([][]clOp, nWorkers)}
	draws := 0
	for w := range in.ops {
		rng := splitmix(seed ^ 0xC1 + uint64(w))
		ops := make([]clOp, nOps)
		at := 0
		for i := range ops {
			switch u := rng.next() % 100; {
			case u < 70:
				ops[i] = clOp{clGet, int32(at)}
			case u < 95:
				ops[i] = clOp{clSet, int32(at)}
			default:
				ops[i] = clOp{clMGet, int32(at)}
			}
			at += ops[i].keys()
		}
		in.ops[w] = ops
		draws = max(draws, at)
	}
	t0 := now()
	var err error
	if in.tab, in.seqs, err = genStreams("hotspot-shift", clusterKeyCap, seed, nWorkers, draws, valueSize); err != nil {
		return nil, err
	}
	in.keygen = float64(now()-t0) / float64(nWorkers*draws)
	return in, nil
}

// clusterWorker is one worker's state across slices.
type clusterWorker struct {
	acked   []bool // key ids this worker's Sets were acknowledged for
	sets    int64
	partial int64
	byKind  [3]*hist
	log     *spanLog
}

var clusterSpans = [3]spanKind{spClusterGet, spClusterSet, spClusterMGet}

// opRange runs ops[lo:hi] of worker w.
func (r *clusterRig) opRange(w int, in *clusterInputs, ws *clusterWorker, lo, hi int, h *hist) (st loopStat) {
	cl, sink, tab, seq := r.cls[w], r.sinks[w], in.tab, in.seqs[w]
	keys := make([]string, mgetKeys)
	for i := lo; i < hi; i++ {
		op := in.ops[w][i]
		ids := seq[op.at:][:op.keys()]
		var opStart int64
		if ws.log != nil {
			opStart = now()
		}
		var err error
		var t0, t1 int64
		switch op.kind {
		case clGet:
			var v []byte
			var found bool
			t0 = now()
			v, found, err = cl.Get(tab.keys[ids[0]])
			t1 = now()
			st.gets++
			if err == nil && found {
				st.hits++
				if !tab.ok(ids[0], v) {
					st.failed++
				}
			}
		case clSet:
			t0 = now()
			err = cl.Set(tab.keys[ids[0]], tab.vals[ids[0]])
			t1 = now()
			if err == nil {
				ws.acked[ids[0]] = true
				ws.sets++
			}
		case clMGet:
			for j, id := range ids {
				keys[j] = tab.keys[id]
			}
			var vs [][]byte
			var found []bool
			t0 = now()
			vs, found, err = cl.MGet(keys)
			t1 = now()
			st.gets += mgetKeys
			for j := range found {
				if found[j] {
					st.hits++
					if !tab.ok(ids[j], vs[j]) {
						st.failed++
					}
				}
			}
		}
		h.record(t1 - t0)
		ws.byKind[op.kind].record(t1 - t0)
		st.ops++
		if err != nil {
			st.failed++
			var pe *client.PartialError
			if errors.As(err, &pe) {
				ws.partial++
			}
		}
		if ws.log != nil {
			root := ws.log.add(spOp, -1, uint32(i), opStart, 0)
			ws.log.addEcho(ws.log.add(clusterSpans[op.kind], root, uint32(i), t0, t1), uint32(i), sink)
			ws.log.spans[root].end = now()
		}
	}
	return st
}

func (r *clusterRig) phase(in *clusterInputs, wss []*clusterWorker, lo, per, slices int) phase {
	var ph phase
	for s := 0; s < slices; s++ {
		ph = append(ph, runSlice(len(r.cls), func(w int, h *hist) loopStat {
			return r.opRange(w, in, wss[w], lo+s*per, lo+(s+1)*per, h)
		}))
	}
	return ph
}

// newClusterWorkers makes the workers' state; spans > 0 gives each a span
// log with room for that many spans.
func newClusterWorkers(n, keys, spans int) []*clusterWorker {
	wss := make([]*clusterWorker, n)
	for w := range wss {
		ws := &clusterWorker{acked: make([]bool, keys)}
		for k := range ws.byKind {
			ws.byKind[k] = newHist()
		}
		if spans > 0 {
			ws.log = newSpanLog(spans)
		}
		wss[w] = ws
	}
	return wss
}

// readBack reads every acknowledged write through the routing client. A
// wrong value is a failed operation. A missing key is one too unless the
// nodes' own eviction and expiry counts can account for it.
func (r *clusterRig) readBack(res *result, in *clusterInputs, wss []*clusterWorker) {
	var missing int64
	for id := range in.tab.keys {
		acked := false
		for _, ws := range wss {
			acked = acked || ws.acked[id]
		}
		if !acked {
			continue
		}
		res.Attempted++
		v, found, err := r.ctl.Get(in.tab.keys[id])
		switch {
		case err != nil:
			res.fail("read back %q: %v", in.tab.keys[id], err)
		case !found:
			missing++
		case !in.tab.ok(uint32(id), v):
			res.fail("read back %q: wrong value", in.tab.keys[id])
		}
	}
	sum, _ := r.stats()
	if dropped := int64(sum.Evictions + sum.Expirations); missing > dropped {
		res.Failed += missing - dropped
		res.note("read back: %d acknowledged writes missing, only %d evictions+expirations to explain them", missing, dropped)
	}
	res.M["cluster.readback_missing"] = float64(missing)
}

// clusterLRUMisses is the reference for miss_norm: one in-process sharded
// LRU with the cluster's total capacity replays the workers' operations,
// interleaved one by one, and its lookup misses over ops [lo,hi) are
// returned.
func clusterLRUMisses(seed uint64, in *clusterInputs, lo, hi int) (int64, error) {
	c, err := stemcache.NewShardedLRU[string, []byte](stemcache.Config{Capacity: clusterNodes * clusterNodeCap, Seed: seed})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	var misses int64
	for i := 0; i < hi; i++ {
		for w, ops := range in.ops {
			op := ops[i]
			for _, id := range in.seqs[w][op.at:][:op.keys()] {
				if op.kind == clSet {
					c.Set(in.tab.keys[id], in.tab.vals[id])
				} else if _, ok := c.Get(in.tab.keys[id]); !ok && i >= lo {
					misses++
				}
			}
		}
	}
	return misses, nil
}

// medianCallUs times calls one at a time and returns the median in us.
func medianCallUs(n int, call func(i int)) float64 {
	h := newHist()
	for i := 0; i < n; i++ {
		t0 := now()
		call(i)
		h.record(now() - t0)
	}
	return h.quantile(0.5) / 1e3
}

func runCluster(cfg runConfig) (*result, error) {
	res := newResult(cfg, "cluster-rf2")
	nW := workers()
	per := cfg.scale(clusterOpsPerS/nSlices, 8)
	warm := cfg.scale(clusterWarmPerS, 64)
	var in *clusterInputs
	var rig *clusterRig
	err := res.setUp(func() (func(), error) {
		var err error
		if in, err = genCluster(cfg.seed, nW, warm+nSlices*per); err != nil {
			return nil, err
		}
		if rig, err = startCluster(cfg.seed, nW, 2, false); err != nil {
			return nil, err
		}
		return rig.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer func() { rig.close() }()

	wss := newClusterWorkers(nW, len(in.tab.keys), 0)
	rig.phase(in, wss, 0, warm, 1)
	before, _ := rig.stats()
	ph := rig.phase(in, wss, warm, per, cfg.baseSlices())
	res.count(ph.total())
	after, perNode := rig.stats()
	for i, st := range perNode {
		res.checkCache(fmt.Sprintf("node %d", i), st)
	}
	ref, err := clusterLRUMisses(cfg.seed, in, warm, warm+refSlices*per)
	if err != nil {
		return nil, err
	}
	s0 := ph.head(refSlices).total()
	missNorm := float64(s0.gets-s0.hits) / float64(max(ref, 1))
	m := res.M
	if !cfg.traced {
		res.timing(ph)
		tot := ph.total()
		m["hit_rate"] = float64(tot.hits) / float64(tot.gets)
		m["miss_norm"] = missNorm
		cacheCounts(m, before, after, tot.ops)
		rig.readBack(res, in, wss)
		res.finish()
		return res, nil
	}

	rig.readBack(res, in, wss)
	baseOps := ph.opsPerS()
	m["workloads.keygen_ns_per_key"] = in.keygen
	m["bench.clock_ns"] = clockNs()
	rig.close()
	if rig, err = startCluster(cfg.seed, nW, 2, true); err != nil {
		return nil, err
	}
	wss = newClusterWorkers(nW, len(in.tab.keys), 4*len(in.ops[0])) // root, call, two echo children
	rig.phase(in, wss, 0, warm, 1)
	for _, ws := range wss {
		ws.log.spans = ws.log.spans[:0] // the warm-up's spans are not the phase's
		for _, h := range ws.byKind {
			*h = *newHist()
		}
	}
	before, _ = rig.stats()
	var setsBefore int64
	for _, ws := range wss {
		setsBefore += ws.sets
	}
	tph := rig.phase(in, wss, warm, per, nSlices)
	res.count(tph.total())
	after, perNode = rig.stats()
	for i, st := range perNode {
		res.checkCache(fmt.Sprintf("traced node %d", i), st)
	}
	m["bench.trace_overhead_pct"] = 100 * (1 - tph.opsPerS()/baseOps)
	res.tracedLatency(tph.lat())
	var sets, partial int64
	kinds := [3]*hist{newHist(), newHist(), newHist()}
	logs := make([]*spanLog, nW)
	for w, ws := range wss {
		sets += ws.sets
		partial += ws.partial
		logs[w] = ws.log
		for k := range kinds {
			kinds[k].merge(ws.byKind[k])
		}
	}
	m["cluster.get_p50_us"] = kinds[clGet].quantile(0.5) / 1e3
	m["cluster.set_p50_us"] = kinds[clSet].quantile(0.5) / 1e3
	m["cluster.mget16_p50_us"] = kinds[clMGet].quantile(0.5) / 1e3
	m["cluster.partial_errors"] = float64(partial)
	// Every cache write beyond the client's own Sets is a replica copy.
	m["membership.fanout_writes_per_set"] = float64(after.Puts-before.Puts)/float64(max(sets-setsBefore, 1)) - 1
	echoMetrics(m, rig.sinks)
	stageMetrics(m, rig.reg, "get")
	conns := 0
	for _, n := range rig.nodes {
		conns += n.Server().ConnCount()
	}
	m["server.conns"] = float64(conns)
	cacheCounts(m, before, after, tph.total().ops)
	rig.readBack(res, in, wss)

	// Side passes. Routing's own cost: the routing client against the owner
	// node's plain client, same key, alternating.
	ctl, seq := rig.ctl, in.seqs[0]
	routed, direct := newHist(), newHist()
	for i := 0; i < sidePassOps; i++ {
		key := in.tab.keys[seq[i%len(seq)]]
		owner, _ := ctl.Ring().Lookup(key)
		t0 := now()
		ctl.Get(key)
		t1 := now()
		ctl.NodeClient(owner).Get(key)
		routed.record(t1 - t0)
		direct.record(now() - t1)
	}
	m["cluster.route_self_us"] = (routed.quantile(0.5) - direct.quantile(0.5)) / 1e3
	// Replication's own cost: the same Sets at replication factor 2 and 1.
	setP50 := func(r *clusterRig) float64 {
		return medianCallUs(sidePassOps, func(i int) {
			id := seq[i%len(seq)]
			r.ctl.Set(in.tab.keys[id], in.tab.vals[id])
		})
	}
	rf1, err := startCluster(cfg.seed, 0, 1, false)
	if err != nil {
		return nil, err
	}
	rf1Us := setP50(rf1)
	rf1.close()
	m["membership.replicate_self_us"] = setP50(rig) - rf1Us
	if err := probeWire(m, in.tab, seq[:min(len(seq), 8192)], 1-float64(tph.total().hits)/float64(max(tph.total().gets, 1))); err != nil {
		return nil, err
	}
	if err := res.traceOut(cfg, logs, 1); err != nil {
		return nil, err
	}
	res.finish()
	return res, nil
}
