package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/stemcache"
)

// The serving workloads drive one in-process server over loopback, the way
// cmd/stemload self-hosts. A separate stemd process measured 27-30 k ops/s
// where the in-process server measured 70-90 k on the same two cores (the
// generator and the server then fight over them differently), so numbers from
// the two set-ups are not comparable; every trajectory point uses this one.
const (
	serveCapacity = 8192 // cache entries; the zipf keyspace is 8x this
	valueSize     = 128
	batchDepth    = 16
	netWarm       = 2000 // warm-up ops per worker sent over the network, after the in-process fill

	// Frozen sizing: worker operations per second of --seconds, chosen once
	// on the reference 2-core box so a measured phase lasts about --seconds.
	serveGetOpsPerS   = 44_000  // round trips per worker per second of budget
	serveBatchOpsPerS = 260_000 // keys per worker per second of budget
	serveWarmPerS     = 7_500   // warm-up ops per worker per second of budget
)

// openRates are serve-open's fixed arrival rates (ops/s, all workers);
// openLimit is the latency limit a rate must meet at p99.
var openRates = [3]float64{5_000, 15_000, 30_000}

const (
	openLimit   = 1000 * time.Microsecond
	maxGenLate  = 100 * time.Microsecond // a step whose generator ran later than this at p99 is unresolved
	backlogGrow = 500 * time.Microsecond // last-slice minus first-slice median send lag that counts as a growing backlog
)

func serveCacheConfig(seed uint64, reg *obs.Registry) stemcache.Config {
	return stemcache.Config{Capacity: serveCapacity, Seed: seed, Metrics: reg}
}

// echoSink receives one worker's trace echoes (each worker owns its client,
// so a sink sees one call at a time). A batch yields one echo per frame; the
// frames are served back to back, so the largest server and total times
// describe the batch.
type echoSink struct {
	mu            sync.Mutex // a cluster MGet's per-node requests echo from their own goroutines
	server, total int64      // ns, of the call in flight
	serverH, netH *hist
}

func (s *echoSink) onTrace(t client.TraceSample) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.server = max(s.server, int64(t.Server))
	s.total = max(s.total, int64(t.Total))
	s.serverH.record(int64(t.Server))
	s.netH.record(int64(t.Net))
}

// take returns the finished call's server share and the rest of its round
// trip, and clears the sink for the next call.
func (s *echoSink) take() (serverNs, netNs int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	serverNs, netNs = s.server, max(s.total-s.server, 0)
	s.server, s.total = 0, 0
	return serverNs, netNs
}

// serveOpts selects what is switched on beside the bare request path.
type serveOpts struct {
	metrics    bool // server and cache obs registries
	traceEvery int  // client.Config.TraceEvery
	spans      int  // > 0: record spans, with room for this many per worker (implies traceEvery 1)
}

// serveRig is one self-hosted server with one single-connection client per
// worker.
type serveRig struct {
	cache *stemcache.Cache[string, []byte]
	srv   *server.Server
	cls   []*client.Client
	reg   *obs.Registry
	sinks []*echoSink
	logs  []*spanLog // nil entries unless spans are on
}

func startServe(seed uint64, nWorkers int, o serveOpts) (*serveRig, error) {
	r := &serveRig{}
	if o.metrics {
		r.reg = obs.NewRegistry()
	}
	cache, err := stemcache.New[string, []byte](serveCacheConfig(seed, r.reg))
	if err != nil {
		return nil, err
	}
	r.cache = cache
	if r.srv, err = server.New(cache, server.Config{Metrics: r.reg}); err != nil {
		r.close()
		return nil, err
	}
	if err := r.srv.Start("127.0.0.1:0"); err != nil {
		r.srv = nil
		r.close()
		return nil, err
	}
	if o.spans > 0 {
		o.traceEvery = 1
	}
	for w := 0; w < nWorkers; w++ {
		sink := &echoSink{serverH: newHist(), netH: newHist()}
		cfg := client.Config{Addr: r.srv.Addr(), PoolSize: 1, TraceEvery: o.traceEvery}
		if o.traceEvery > 0 {
			cfg.OnTrace = sink.onTrace
		}
		cl, err := client.New(cfg)
		if err != nil {
			r.close()
			return nil, err
		}
		r.cls = append(r.cls, cl)
		r.sinks = append(r.sinks, sink)
		var log *spanLog
		if o.spans > 0 {
			log = newSpanLog(o.spans)
		}
		r.logs = append(r.logs, log)
		if err := cl.Ping(); err != nil {
			r.close()
			return nil, fmt.Errorf("server unreachable at %s: %w", r.srv.Addr(), err)
		}
	}
	return r, nil
}

func (r *serveRig) close() {
	for _, cl := range r.cls {
		cl.Close()
	}
	if r.srv != nil {
		r.srv.Close()
	}
	if r.cache != nil {
		r.cache.Close()
	}
}

// reconnects is how many connections the server accepted beyond one per
// client: each is a client retry on a fresh connection.
func (r *serveRig) reconnects() (float64, error) {
	raw, err := r.cls[0].Stats()
	if err != nil {
		return 0, err
	}
	var snap server.StatsSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return 0, fmt.Errorf("STATS payload: %w", err)
	}
	return float64(snap.ConnsAccepted) - float64(len(r.cls)), nil
}

// getRange is the serve-get loop body: one Get round trip per key of
// seq[lo:hi], Set on a miss. The latency sample is the Get alone.
func (r *serveRig) getRange(w int, tab *keyTable, seq []uint32, lo, hi int, h *hist) (st loopStat) {
	cl, sink, log := r.cls[w], r.sinks[w], r.logs[w]
	for i := lo; i < hi; i++ {
		var opStart int64
		if log != nil {
			opStart = now()
		}
		id := seq[i]
		key := tab.keys[id]
		t0 := now()
		v, found, err := cl.Get(key)
		t1 := now()
		h.record(t1 - t0)
		root := int32(-1)
		if log != nil {
			root = log.add(spOp, -1, uint32(i), opStart, t1)
			log.addEcho(log.add(spClientGet, root, uint32(i), t0, t1), uint32(i), sink)
		}
		st.ops++
		st.gets++
		switch {
		case err != nil:
			st.failed++
		case found:
			st.hits++
			if !tab.ok(id, v) {
				st.failed++
			}
		default:
			t2 := now()
			if err := cl.Set(key, tab.vals[id]); err != nil {
				st.failed++
			}
			if log != nil {
				log.addEcho(log.add(spClientSet, root, uint32(i), t2, now()), uint32(i), sink)
			}
		}
		if log != nil {
			log.spans[root].end = now()
		}
	}
	return st
}

// batchRange is the serve-batch loop body: keys go out sixteen GETs per
// pipelined round trip, and the batch's misses ride the next round trip as
// SETs ahead of its GETs. One unit of work is one key; the latency sample is
// one Batch.Do.
func (r *serveRig) batchRange(w int, tab *keyTable, seq []uint32, lo, hi int, h *hist) (st loopStat) {
	cl, sink, log := r.cls[w], r.sinks[w], r.logs[w]
	b := cl.NewBatch()
	var missed []uint32
	for i := lo; i < hi; i += batchDepth {
		var opStart int64
		if log != nil {
			opStart = now()
		}
		ids := seq[i:min(i+batchDepth, hi)]
		b.Reset()
		for _, id := range missed {
			b.Set(tab.keys[id], tab.vals[id])
		}
		sets := len(missed)
		for _, id := range ids {
			b.Get(tab.keys[id])
		}
		t0 := now()
		res, err := b.Do()
		t1 := now()
		h.record(t1 - t0)
		root := int32(-1)
		if log != nil {
			root = log.add(spOp, -1, uint32(i), opStart, t1)
			log.addEcho(log.add(spClientBatch, root, uint32(i), t0, t1), uint32(i), sink)
		}
		st.ops += int64(len(ids))
		st.gets += int64(len(ids))
		missed = missed[:0]
		if err != nil {
			st.failed += int64(len(ids))
			continue
		}
		for j, id := range ids {
			rj := res[sets+j]
			if v, found := rj.Get(); rj.Err() != nil {
				st.failed++
			} else if !found {
				missed = append(missed, id)
			} else if st.hits++; !tab.ok(id, v) {
				st.failed++
			}
		}
		for j := 0; j < sets; j++ {
			if res[j].Err() != nil {
				st.failed++
			}
		}
		if log != nil {
			log.spans[root].end = now()
		}
	}
	return st
}

// asideWindow is how the in-process replays interleave the workers'
// sequences: window keys of worker 0, then window keys of worker 1, ...,
// each window as its Gets followed by Sets of its misses. window 1 is
// serve-get's order, batchDepth is serve-batch's.
func replayAside(c *stemcache.Cache[string, []byte], tab *keyTable, seqs [][]uint32, lo, hi, window int) (gets, misses int64) {
	var missed []uint32
	for i := lo; i < hi; i += window {
		for _, seq := range seqs {
			missed = missed[:0]
			for _, id := range seq[i:min(i+window, hi)] {
				gets++
				if _, ok := c.Get(tab.keys[id]); !ok {
					missed = append(missed, id)
				}
			}
			misses += int64(len(missed))
			for _, id := range missed {
				c.Set(tab.keys[id], tab.vals[id])
			}
		}
	}
	return gets, misses
}

// lruMisses is the reference every miss_norm is normalized by: a sharded LRU
// of the same geometry replays the warm-up and then ops [lo,hi) of the same
// sequences in process, and its misses over [lo,hi) are returned.
func lruMisses(cfg stemcache.Config, tab *keyTable, seqs [][]uint32, lo, hi, window int) (int64, error) {
	cfg.Metrics = nil
	c, err := stemcache.NewShardedLRU[string, []byte](cfg)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	replayAside(c, tab, seqs, 0, lo, window)
	_, misses := replayAside(c, tab, seqs, lo, hi, window)
	return misses, nil
}

// serveInputs is what set-up produces for a serving workload.
type serveInputs struct {
	tab    *keyTable
	seqs   [][]uint32
	warm   int       // ops [0,warm) of every sequence fill the cache
	per    int       // ops per worker per slice (closed loops)
	scheds [][]int64 // serve-open: per (step, worker) arrival offsets
	keygen float64   // ns per generated key
}

// warmUp fills the rig's cache in process with the warm-up range and then
// sends its last netWarm ops per worker over the network, so connections,
// buffers and the runtime's pools are warm too.
func (r *serveRig) warmUp(in *serveInputs, window int, body rangeBody) {
	fill := max(in.warm-netWarm, 0)
	replayAside(r.cache, in.tab, in.seqs, 0, fill, window)
	runSlice(len(r.cls), func(w int, h *hist) loopStat {
		return body(r, w, in.tab, in.seqs[w], fill, in.warm, h)
	})
}

type rangeBody func(r *serveRig, w int, tab *keyTable, seq []uint32, lo, hi int, h *hist) loopStat

// closedPhase runs slices [first, first+n) of the measured range.
func (r *serveRig) closedPhase(in *serveInputs, body rangeBody, first, n int) phase {
	var ph phase
	for s := first; s < first+n; s++ {
		lo := in.warm + s*in.per
		ph = append(ph, runSlice(len(r.cls), func(w int, h *hist) loopStat {
			return body(r, w, in.tab, in.seqs[w], lo, lo+in.per, h)
		}))
	}
	return ph
}

// runServeClosed is serve-get and serve-batch.
func runServeClosed(cfg runConfig, name, dist string, opsPerS float64, window int, body rangeBody) (*result, error) {
	res := newResult(cfg, name)
	nW := workers()
	per := cfg.scale(opsPerS/nSlices, window)
	per -= per % window
	warm := cfg.scale(serveWarmPerS, netWarm+window)
	var in *serveInputs
	var rig *serveRig
	err := res.setUp(func() (func(), error) {
		t0 := now()
		tab, seqs, err := genStreams(dist, serveCapacity, cfg.seed, nW, warm+nSlices*per, valueSize)
		if err != nil {
			return nil, err
		}
		in = &serveInputs{tab: tab, seqs: seqs, warm: warm, per: per,
			keygen: float64(now()-t0) / float64(nW*(warm+nSlices*per))}
		rig, err = startServe(cfg.seed, nW, serveOpts{})
		if err != nil {
			return nil, err
		}
		return rig.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer func() { rig.close() }()

	rig.warmUp(in, window, body)
	before := rig.cache.Stats()
	m0 := mallocs()
	ph := rig.closedPhase(in, body, 0, cfg.baseSlices())
	allocsPerOp := float64(mallocs()-m0) / float64(ph.total().ops)
	res.count(ph.total())
	res.checkCache("untraced", rig.cache.Stats())

	// The reference replays the warm-up and the first refSlices; the served
	// misses it is compared with are those slices'.
	ref, err := lruMisses(serveCacheConfig(cfg.seed, nil), in.tab, in.seqs, warm, warm+refSlices*per, window)
	if err != nil {
		return nil, err
	}
	s0 := ph.head(refSlices).total()
	missNorm := float64(s0.gets-s0.hits) / float64(max(ref, 1))
	hitGain := 100 * float64(ref-(s0.gets-s0.hits)) / float64(s0.gets)

	if !cfg.traced {
		m := res.M
		res.timing(ph)
		tot := ph.total()
		m["hit_rate"] = float64(tot.hits) / float64(tot.gets)
		m["miss_norm"] = missNorm
		m["hit_gain_pp"] = hitGain
		lat := ph.lat()
		m["p999_us"] = lat.quantile(0.999) / 1e3
		m["max_us"] = float64(lat.max) / 1e3
		cacheCounts(m, before, rig.cache.Stats(), tot.ops)
		res.finish()
		return res, nil
	}

	// Traced run: the untraced slice above is the base every cost below is
	// a share of.
	m := res.M
	baseOps := ph.opsPerS()
	m["client.allocs_per_op"] = allocsPerOp
	m["stemcache.hit_gain_pp"] = hitGain
	m["workloads.keygen_ns_per_key"] = in.keygen
	m["bench.clock_ns"] = clockNs()
	variant := func(o serveOpts, slices int) (*serveRig, phase, stemcache.Stats, error) {
		v, err := startServe(cfg.seed, nW, o)
		if err != nil {
			return nil, nil, stemcache.Stats{}, err
		}
		v.warmUp(in, window, body)
		st := v.cache.Stats()
		return v, v.closedPhase(in, body, 0, slices), st, nil
	}
	if name == "serve-get" {
		for _, c := range []struct {
			metric string
			o      serveOpts
		}{
			{"obs.metrics_on_cost_pct", serveOpts{metrics: true}},
			{"obs.trace_every1_cost_pct", serveOpts{traceEvery: 1}},
		} {
			v, vph, _, err := variant(c.o, refSlices)
			if err != nil {
				return nil, err
			}
			res.count(vph.total())
			v.close()
			m[c.metric] = 100 * (1 - vph.opsPerS()/baseOps)
		}
	}
	rig.close()
	var tph phase
	// At most 7 spans per operation: the root, the GET and the SET on a
	// miss, each with its two echo children.
	rig, tph, before, err = variant(serveOpts{metrics: true, spans: 7 * len(in.seqs[0])}, nSlices)
	if err != nil {
		return nil, err
	}
	res.count(tph.total())
	res.checkCache("traced", rig.cache.Stats())
	m["bench.trace_overhead_pct"] = 100 * (1 - tph.opsPerS()/baseOps)
	lat := tph.lat()
	res.tracedLatency(lat)
	rttMetrics(m, lat)
	if window == batchDepth {
		m["client.batch16_do_p50_us"] = lat.quantile(0.50) / 1e3
	}
	tot := tph.total()
	m["client.errors"] = float64(tot.failed)
	if m["client.retries"], err = rig.reconnects(); err != nil {
		return nil, err
	}
	echoMetrics(m, rig.sinks)
	stageMetrics(m, rig.reg, "get")
	m["server.conns"] = float64(rig.srv.ConnCount())
	cacheCounts(m, before, rig.cache.Stats(), tot.ops)
	if err := probeWire(m, in.tab, in.seqs[0][:warm], 1-float64(tot.hits)/float64(tot.gets)); err != nil {
		return nil, err
	}
	if err := probeStemcache(m, serveCacheConfig(cfg.seed, nil), in.tab, in.seqs, warm); err != nil {
		return nil, err
	}
	if err := res.traceOut(cfg, rig.logs, float64(window)); err != nil {
		return nil, err
	}
	res.finish()
	return res, nil
}

// rttMetrics reports the client's round trips of a traced phase.
func rttMetrics(m metrics, lat *hist) {
	m["client.rtt_p50_us"] = lat.quantile(0.50) / 1e3
	m["client.rtt_p99_us"] = lat.quantile(0.99) / 1e3
	m["client.rtt_p999_us"] = lat.quantile(0.999) / 1e3
	m["client.rtt_max_us"] = float64(lat.max) / 1e3
}

// echoMetrics reports the server's and the network's share of a round trip
// from the trace echoes. client.net_* is the round trip minus the server's
// queue+handle time: client codec, connection pool, kernel loopback, netpoll
// and scheduler together — the part that cannot be attributed from outside
// the packages.
func echoMetrics(m metrics, sinks []*echoSink) {
	srv, net := newHist(), newHist()
	for _, s := range sinks {
		srv.merge(s.serverH)
		net.merge(s.netH)
	}
	m["server.queue_handle_p50_us"] = srv.quantile(0.50) / 1e3
	m["server.queue_handle_p99_us"] = srv.quantile(0.99) / 1e3
	m["client.net_p50_us"] = net.quantile(0.50) / 1e3
	m["client.net_p99_us"] = net.quantile(0.99) / 1e3
}

// stageMetrics reads the server's own per-opcode stage histograms. They
// have microsecond resolution, so a 0.2 us GET handle reads 0 (see README).
func stageMetrics(m metrics, reg *obs.Registry, op string) {
	for _, stage := range []string{"decode", "handle", "write"} {
		h := reg.Latency("server.lat." + op + "." + stage + "_us")
		m["server."+stage+"_p99_us"] = float64(h.Quantile(0.99))
	}
}

// openStep is one arrival rate of serve-open.
type openStep struct {
	rate    float64
	lat     []*hist // per slice, workers merged: completion minus due time
	rtt     []*hist // per slice: the Get round trips alone, from their actual send
	late    *hist
	lagGrow float64 // last-slice minus first-slice median send lag, ns
	speed   float64 // hostSpeed beside the step
	wall    time.Duration
	cpu     time.Duration
	loopStat
}

func (s *openStep) all() *hist { return merged(s.lat) }

func merged(hs []*hist) *hist {
	out := newHist()
	for _, h := range hs {
		out.merge(h)
	}
	return out
}

// verdict classifies the step against the latency limit.
func (s *openStep) verdict() string {
	switch {
	case s.late.quantile(0.99) > float64(maxGenLate):
		return "unresolved"
	case s.all().quantile(0.99) <= float64(openLimit) && s.lagGrow <= float64(backlogGrow):
		return "ok"
	default:
		return "missed"
	}
}

// openPhase runs the three rate steps back to back on a warm rig.
func (r *serveRig) openPhase(in *serveInputs) []openStep {
	nW := len(r.cls)
	steps := make([]openStep, len(openRates))
	lo := in.warm
	for si := range steps {
		st := &steps[si]
		st.rate = openRates[si]
		scheds := in.scheds[si*nW : (si+1)*nW]
		n := len(scheds[0])
		stats := make([]loopStat, nW)
		// rtts[w][s]: each worker records into its own histograms; the
		// slice of arrival i is the one openLoop files it under.
		rtts := make([][]*hist, nW)
		for w := range rtts {
			for s := 0; s < openSlices; s++ {
				rtts[w] = append(rtts[w], newHist())
			}
		}
		per := (n + openSlices - 1) / openSlices
		speed0 := hostSpeed()
		cpu0 := cpuTime()
		base := now() + int64(time.Millisecond)
		outs := openLoop(base, scheds, func(w, i int) {
			stats[w].add(r.getRange(w, in.tab, in.seqs[w], lo+i, lo+i+1, rtts[w][i/per]))
		})
		st.wall, st.cpu = time.Duration(now()-base), cpuTime()-cpu0
		st.speed = (speed0 + hostSpeed()) / 2
		st.late = newHist()
		lag := make([]*hist, openSlices)
		for s := 0; s < openSlices; s++ {
			st.lat = append(st.lat, newHist())
			st.rtt = append(st.rtt, newHist())
			lag[s] = newHist()
		}
		for w, o := range outs {
			st.add(stats[w])
			st.late.merge(o.late)
			for s := 0; s < openSlices; s++ {
				st.lat[s].merge(o.lat[s])
				st.rtt[s].merge(rtts[w][s])
				lag[s].merge(o.lag[s])
			}
		}
		st.lagGrow = lag[openSlices-1].quantile(0.5) - lag[0].quantile(0.5)
		lo += n
	}
	return steps
}

// openMetrics folds the steps into the end-to-end metrics. Throughput is
// arrivals answered within the limit, from their scheduled time, per second.
// p50_us is the latency from the scheduled time, a slice median like
// everywhere else. The p99 from the scheduled time is set by how many
// multi-millisecond stalls of the sandbox a step happens to catch (each one
// delays every arrival queued behind it), spread 160-208 % over ten runs, so
// it is reported per rate as the diagnostic open.p99_us.*; the run's p99_us
// diagnostic is the round trip from its actual send.
func openMetrics(m metrics, steps []openStep) {
	var within, ops, gets, hits float64
	var wall, cpu time.Duration
	maxOK := 0.0
	for _, s := range steps {
		all := s.all()
		within += float64(all.countBelow(uint64(openLimit)))
		ops += float64(s.ops)
		gets += float64(s.gets)
		hits += float64(s.hits)
		wall += s.wall
		cpu += s.cpu
		tag := fmt.Sprintf("%dk", int(s.rate/1000))
		m["open.p99_us."+tag] = all.quantile(0.99) / 1e3
		m["open.gen_late_p99_us."+tag] = s.late.quantile(0.99) / 1e3
		v := s.verdict()
		m["open.ok."+tag] = map[string]float64{"ok": 1, "missed": 0, "unresolved": -1}[v]
		if v == "ok" {
			maxOK = s.rate
		}
	}
	// Everything here is as measured. A step cannot be interrupted to read
	// the host's speed, and the two readings beside it are too few to scale
	// by (scaled, the spread of p50_us over ten runs was 22 %; as measured,
	// 9 %); the goodput is set by the schedule and the CPU time by the
	// spinning pacer anyway. The latency percentiles are medians over the
	// slices of all three steps: a round trip runs in one of two modes
	// (8 or 11 us, by where the scheduler puts the two ends) for seconds at
	// a time, and one step alone often sees only one of them.
	slices := func(pick func(s *openStep) []*hist, q float64) float64 {
		var v []float64
		for i := range steps {
			for _, h := range pick(&steps[i]) {
				v = append(v, h.quantile(q)/1e3)
			}
		}
		return median(v)
	}
	m["ops_per_s"] = within / wall.Seconds()
	m["p50_us"] = slices(func(s *openStep) []*hist { return s.lat }, 0.50)
	m["p99_us"] = slices(func(s *openStep) []*hist { return s.rtt }, 0.99)
	m["host_speed"] = median([]float64{steps[0].speed, steps[1].speed, steps[2].speed})
	m["cpu_us_per_op"] = float64(cpu) / 1e3 / ops
	m["hit_rate"] = hits / gets
	m["open.max_rate_ok"] = maxOK
	late := newHist()
	for _, s := range steps {
		late.merge(s.late)
	}
	m["bench.gen_late_p99_us"] = late.quantile(0.99) / 1e3
}

// runServeOpen is serve-open: serve-get's server and keys under an arrival
// schedule instead of a closed loop.
func runServeOpen(cfg runConfig) (*result, error) {
	res := newResult(cfg, "serve-open")
	nW := max(workers()-1, 1) // a spinning worker never yields its CPU; one CPU stays with the runtime (GC workers, netpoll, sysmon)
	stepS := cfg.seconds / float64(len(openRates))
	warm := cfg.scale(serveWarmPerS, netWarm+1)
	var in *serveInputs
	var rig *serveRig
	err := res.setUp(func() (func(), error) {
		t0 := now()
		in = &serveInputs{warm: warm}
		total := warm
		for si, rate := range openRates {
			n := max(int(rate*stepS)/nW, openSlices)
			for w := 0; w < nW; w++ {
				in.scheds = append(in.scheds, poissonSchedule(n, rate/float64(nW), cfg.seed+uint64(100*si+w)))
			}
			total += n
		}
		var err error
		if in.tab, in.seqs, err = genStreams("zipf", serveCapacity, cfg.seed, nW, total, valueSize); err != nil {
			return nil, err
		}
		in.keygen = float64(now()-t0) / float64(nW*total)
		if rig, err = startServe(cfg.seed, nW, serveOpts{}); err != nil {
			return nil, err
		}
		return rig.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer func() { rig.close() }()

	getBody := (*serveRig).getRange
	rig.warmUp(in, 1, getBody)
	before := rig.cache.Stats()
	steps := rig.openPhase(in)
	m := res.M
	openMetrics(m, steps)
	for _, s := range steps {
		res.count(s.loopStat)
	}
	res.checkCache("untraced", rig.cache.Stats())
	n0 := len(in.scheds[0])
	ref, err := lruMisses(serveCacheConfig(cfg.seed, nil), in.tab, in.seqs, warm, warm+n0, 1)
	if err != nil {
		return nil, err
	}
	m["miss_norm"] = float64(steps[0].gets-steps[0].hits) / float64(max(ref, 1))
	if !cfg.traced {
		cacheCounts(m, before, rig.cache.Stats(), res.Attempted)
		res.finish()
		return res, nil
	}

	// Traced: the same schedule again on a fresh rig with spans on. The
	// open.* diagnostics above stay the untraced pass's.
	baseWithin := m["ops_per_s"]
	m["workloads.keygen_ns_per_key"] = in.keygen
	m["bench.clock_ns"] = clockNs()
	rig.close()
	if rig, err = startServe(cfg.seed, nW, serveOpts{metrics: true, spans: 7 * len(in.seqs[0])}); err != nil {
		return nil, err
	}
	rig.warmUp(in, 1, getBody)
	before = rig.cache.Stats()
	tsteps := rig.openPhase(in)
	tm := metrics{}
	openMetrics(tm, tsteps)
	m["bench.trace_overhead_pct"] = 100 * (1 - tm["ops_per_s"]/baseWithin)
	var ops int64
	lat := newHist()
	for _, s := range tsteps {
		res.count(s.loopStat)
		ops += s.ops
		lat.merge(merged(s.rtt))
	}
	res.checkCache("traced", rig.cache.Stats())
	res.tracedLatency(tsteps[1].all())
	rttMetrics(m, lat)
	if m["client.retries"], err = rig.reconnects(); err != nil {
		return nil, err
	}
	echoMetrics(m, rig.sinks)
	stageMetrics(m, rig.reg, "get")
	m["server.conns"] = float64(rig.srv.ConnCount())
	cacheCounts(m, before, rig.cache.Stats(), ops)
	if err := probeWire(m, in.tab, in.seqs[0][:warm], 1-tm["hit_rate"]); err != nil {
		return nil, err
	}
	if err := res.traceOut(cfg, rig.logs, 1); err != nil {
		return nil, err
	}
	res.finish()
	return res, nil
}
