package main

import (
	"fmt"
	"time"

	"repro/internal/stemcache"
)

// The library workloads call stemcache directly from nproc goroutines. Calls
// cost a few hundred nanoseconds, so they are issued and timed in chunks of
// libChunk same-kind calls with one clock read between kinds: a chunk is the
// unit p50_us/p99_us describe, a call is the unit ops_per_s counts.
const (
	libChunk    = 256
	libCapacity = 8192
	libSeqLen   = 1 << 19 // pre-generated keys per worker; the timed loops cycle through them

	libMixedOpsPerS = 1_200_000 // keys per worker per second of budget
	libChurnOpsPerS = 1_450_000 // calls per worker per second of budget
	libWarmChunks   = 512       // warm-up chunks per worker

	// lib-churn's chunk: 115 SetWithTTL, 26 Delete, 115 Get (45/10/45 %).
	churnSets = 115
	churnDels = 26
	churnGets = libChunk - churnSets - churnDels
	churnKeys = 4 * libCapacity
)

// churnTTLs are lib-churn's entry lifetimes. At over a million inserts a
// second the 8192-entry cache turns over in about 6 ms. A quarter of the
// inserts get 100 us and are dead before anything can read them (the expiry
// path); the rest outlive their eviction many times over (the eviction path
// with a deadline to check). Lifetimes near the turnover time would make
// the hit rate a function of how fast the host happens to run.
var churnTTLs = [4]time.Duration{100 * time.Microsecond, 50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond}

func libCacheConfig(seed uint64) stemcache.Config {
	return stemcache.Config{Capacity: libCapacity, Seed: seed}
}

type libCache = stemcache.Cache[string, []byte]

// libBody runs chunks [lo,hi) (chunk numbers) of worker w's sequence.
type libBody func(c *libCache, tab *keyTable, seq []uint32, lo, hi int, h *hist, log *spanLog) loopStat

// mixedChunks is lib-mixed's loop: per chunk, 256 Gets, then Sets of the
// ones that missed, then (outside both timed spans) the value check.
func mixedChunks(c *libCache, tab *keyTable, seq []uint32, lo, hi int, h *hist, log *spanLog) (st loopStat) {
	var got [libChunk][]byte
	var found [libChunk]bool
	chunks := len(seq) / libChunk
	for ch := lo; ch < hi; ch++ {
		ids := seq[ch%chunks*libChunk:][:libChunk]
		t0 := now()
		for j, id := range ids {
			got[j], found[j] = c.Get(tab.keys[id])
		}
		t1 := now()
		for j, id := range ids {
			if !found[j] {
				c.Set(tab.keys[id], tab.vals[id])
			}
		}
		t2 := now()
		h.record(t2 - t0)
		for j, id := range ids {
			if found[j] {
				st.hits++
				if !tab.ok(id, got[j]) {
					st.failed++
				}
			}
		}
		st.ops += libChunk
		st.gets += libChunk
		if log != nil {
			root := log.add(spOp, -1, uint32(ch), t0, 0)
			log.add(spCacheGet, root, uint32(ch), t0, t1)
			log.add(spCacheSet, root, uint32(ch), t1, t2)
			log.spans[root].end = now()
		}
	}
	return st
}

// churnChunks is lib-churn's loop. A sequence element is a key id with the
// TTL choice in its top two bits.
func churnChunks(c *libCache, tab *keyTable, seq []uint32, lo, hi int, h *hist, log *spanLog) (st loopStat) {
	var got [churnGets][]byte
	var found [churnGets]bool
	chunks := len(seq) / libChunk
	for ch := lo; ch < hi; ch++ {
		ops := seq[ch%chunks*libChunk:][:libChunk]
		t0 := now()
		for _, op := range ops[:churnSets] {
			id := op & (1<<30 - 1)
			c.SetWithTTL(tab.keys[id], tab.vals[id], churnTTLs[op>>30])
		}
		t1 := now()
		for _, op := range ops[churnSets : churnSets+churnDels] {
			c.Delete(tab.keys[op&(1<<30-1)])
		}
		t2 := now()
		gets := ops[churnSets+churnDels:]
		for j, op := range gets {
			got[j], found[j] = c.Get(tab.keys[op&(1<<30-1)])
		}
		t3 := now()
		h.record(t3 - t0)
		for j, op := range gets {
			if found[j] {
				st.hits++
				if !tab.ok(op&(1<<30-1), got[j]) {
					st.failed++
				}
			}
		}
		st.ops += libChunk
		st.gets += churnGets
		if log != nil {
			root := log.add(spOp, -1, uint32(ch), t0, 0)
			log.add(spCacheSet, root, uint32(ch), t0, t1)
			log.add(spCacheDelete, root, uint32(ch), t1, t2)
			log.add(spCacheGet, root, uint32(ch), t2, t3)
			log.spans[root].end = now()
		}
	}
	return st
}

// genChurn pre-generates lib-churn's sequences: uniform keys over four times
// the capacity, so nearly every insert evicts.
func genChurn(seed uint64, nWorkers int) (*keyTable, [][]uint32) {
	tab := newKeyTable(valueSize)
	for i := 0; i < churnKeys; i++ {
		tab.intern(fmt.Sprintf("u%d", i))
	}
	seqs := make([][]uint32, nWorkers)
	for w := range seqs {
		rng := splitmix(seed + uint64(w)*0x9e37)
		seq := make([]uint32, libSeqLen)
		for i := range seq {
			r := rng.next()
			seq[i] = uint32(r%churnKeys) | uint32(r>>62)<<30
		}
		seqs[w] = seq
	}
	return tab, seqs
}

// libPhase runs slices of per chunks per worker starting at chunk first.
func libPhase(c *libCache, tab *keyTable, seqs [][]uint32, body libBody, first, per, slices int, logs []*spanLog) phase {
	var ph phase
	for s := 0; s < slices; s++ {
		lo := first + s*per
		ph = append(ph, runSlice(len(seqs), func(w int, h *hist) loopStat {
			var log *spanLog
			if logs != nil {
				log = logs[w]
			}
			return body(c, tab, seqs[w], lo, lo+per, h, log)
		}))
	}
	return ph
}

// runLib is lib-mixed and lib-churn.
func runLib(cfg runConfig, name string, opsPerS float64, body libBody) (*result, error) {
	res := newResult(cfg, name)
	nW := workers()
	per := cfg.scale(opsPerS/nSlices/libChunk, 4) // chunks per worker per slice
	warm := min(libWarmChunks, 8*per)
	ccfg := libCacheConfig(cfg.seed)
	var tab *keyTable
	var seqs [][]uint32
	var keygen float64
	var cache *libCache
	err := res.setUp(func() (func(), error) {
		t0 := now()
		var err error
		if name == "lib-churn" {
			tab, seqs = genChurn(cfg.seed, nW)
		} else if tab, seqs, err = genStreams("mixed", libCapacity, cfg.seed, nW, libSeqLen, valueSize); err != nil {
			return nil, err
		}
		keygen = float64(now()-t0) / float64(nW*libSeqLen)
		if cache, err = stemcache.New[string, []byte](ccfg); err != nil {
			return nil, err
		}
		return cache.Close, nil
	})
	if err != nil {
		return nil, err
	}
	defer func() { cache.Close() }()

	libPhase(cache, tab, seqs, body, 0, warm, 1, nil)
	before := cache.Stats()
	ph := libPhase(cache, tab, seqs, body, warm, per, cfg.baseSlices(), nil)
	res.count(ph.total())
	res.checkCache("untraced", cache.Stats())

	// Reference: a sharded LRU of the same geometry runs the warm-up and
	// the first refSlices of the same sequences under the same loop.
	lru, err := stemcache.NewShardedLRU[string, []byte](ccfg)
	if err != nil {
		return nil, err
	}
	libPhase(lru, tab, seqs, body, 0, warm, 1, nil)
	ref := libPhase(lru, tab, seqs, body, warm, per, refSlices, nil)
	res.checkCache("lru reference", lru.Stats())
	lru.Close()
	res.Failed += ref.total().failed
	s0, r0 := ph.head(refSlices).total(), ref.total()
	missNorm := float64(s0.gets-s0.hits) / float64(max(r0.gets-r0.hits, 1))
	hitGain := 100 * float64(s0.hits-r0.hits) / float64(s0.gets)

	m := res.M
	if !cfg.traced {
		res.timing(ph)
		tot := ph.total()
		m["hit_rate"] = float64(tot.hits) / float64(tot.gets)
		m["miss_norm"] = missNorm
		m["hit_gain_pp"] = hitGain
		cacheCounts(m, before, cache.Stats(), tot.ops)
		res.finish()
		return res, nil
	}

	m["stemcache.hit_gain_pp"] = hitGain
	m["workloads.keygen_ns_per_key"] = keygen
	m["bench.clock_ns"] = clockNs()
	baseOps := ph.opsPerS()
	cache.Close()
	if cache, err = stemcache.New[string, []byte](ccfg); err != nil {
		return nil, err
	}
	logs := make([]*spanLog, nW)
	for w := range logs {
		logs[w] = newSpanLog(4 * nSlices * per) // per chunk: root and at most three kinds of call
	}
	libPhase(cache, tab, seqs, body, 0, warm, 1, nil)
	before = cache.Stats()
	tph := libPhase(cache, tab, seqs, body, warm, per, nSlices, logs)
	res.count(tph.total())
	res.checkCache("traced", cache.Stats())
	m["bench.trace_overhead_pct"] = 100 * (1 - tph.opsPerS()/baseOps)
	res.tracedLatency(tph.lat())
	cacheCounts(m, before, cache.Stats(), tph.total().ops)
	if err := probeStemcache(m, ccfg, tab, seqs, warm*libChunk); err != nil {
		return nil, err
	}
	if err := res.traceOut(cfg, logs, libChunk); err != nil {
		return nil, err
	}
	res.finish()
	return res, nil
}
