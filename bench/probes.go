package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/stemcache"
	"repro/internal/wire"
)

// Layer probes: a layer's public functions called directly, outside any
// workload, over the workload's own keys. They run in traced runs only and
// give the ns-scale numbers the in-situ spans cannot resolve.

// timeChunks calls f(0..n-1) in chunks of up to libChunk with one clock pair
// per chunk and returns the median ns per call, the clock's own cost
// removed.
func timeChunks(n int, f func(i int)) float64 {
	clock := clockNs()
	var per []float64
	for lo := 0; lo < n; lo += libChunk {
		hi := min(lo+libChunk, n)
		t0 := now()
		for i := lo; i < hi; i++ {
			f(i)
		}
		per = append(per, (float64(now()-t0)-clock)/float64(hi-lo))
	}
	return max(median(per), 0)
}

// probeWire replays keys of the recorded stream through the codec exactly as
// a round trip does — AppendRequest, DecodeRequestInto, AppendResponse,
// DecodeResponseInto — calling each directly (the repo's gate benchmark
// reaches them through a tb.Helper wrapper and reads 8x too high).
func probeWire(m metrics, tab *keyTable, seq []uint32, missRate float64) error {
	var lim wire.Limits
	n := min(len(seq), 8192)
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	frames := 0
	m0 := mallocs()
	// codec times one frame kind and returns its mean encoded size.
	codec := func(name string, n int, enc func(buf []byte, i int) ([]byte, error), dec func(data []byte) (int, error)) float64 {
		// An untimed pass first: it grows the buffer to its final size and
		// touches its pages, so the timed pass pays for neither.
		var buf []byte
		for pass := 0; pass < 2; pass++ {
			buf = buf[:0]
			m["wire."+name+"_encode_ns"] = timeChunks(n, func(i int) {
				var err error
				buf, err = enc(buf, i)
				note(err)
			})
		}
		pos := 0
		m["wire."+name+"_decode_ns"] = timeChunks(n, func(int) {
			k, err := dec(buf[pos:])
			note(err)
			pos += k
		})
		if pos != len(buf) {
			note(fmt.Errorf("wire probe %s: decoded %d of %d bytes", name, pos, len(buf)))
		}
		frames += 2 * n
		return float64(len(buf)) / float64(n)
	}
	var req wire.Request
	var resp wire.Response
	decReq := func(data []byte) (int, error) { return wire.DecodeRequestInto(&req, data, lim) }
	decResp := func(data []byte) (int, error) { return wire.DecodeResponseInto(&resp, data, lim) }
	out := wire.Request{}
	getReq := codec("get_req", n, func(buf []byte, i int) ([]byte, error) {
		out = wire.Request{Op: wire.OpGet, ID: uint32(i), Key: tab.keys[seq[i]]}
		return wire.AppendRequest(buf, &out, lim)
	}, decReq)
	in := wire.Response{}
	getResp := codec("get_resp", n, func(buf []byte, i int) ([]byte, error) {
		in = wire.Response{Op: wire.OpGet, ID: uint32(i), Status: wire.StatusOK, Value: tab.vals[seq[i]]}
		return wire.AppendResponse(buf, &in, lim)
	}, decResp)
	setReq := codec("set_req", n, func(buf []byte, i int) ([]byte, error) {
		out = wire.Request{Op: wire.OpSet, ID: uint32(i), Key: tab.keys[seq[i]], Value: tab.vals[seq[i]]}
		return wire.AppendRequest(buf, &out, lim)
	}, decReq)
	groups := n / batchDepth
	keys := make([]string, batchDepth)
	found := make([]bool, batchDepth)
	values := make([][]byte, batchDepth)
	for j := range found {
		found[j] = true
	}
	codec("mget16_req", groups, func(buf []byte, g int) ([]byte, error) {
		for j := range keys {
			keys[j] = tab.keys[seq[g*batchDepth+j]]
		}
		out = wire.Request{Op: wire.OpMGet, ID: uint32(g), Keys: keys}
		return wire.AppendRequest(buf, &out, lim)
	}, decReq)
	codec("mget16_resp", groups, func(buf []byte, g int) ([]byte, error) {
		for j := range values {
			values[j] = tab.vals[seq[g*batchDepth+j]]
		}
		in = wire.Response{Op: wire.OpMGet, ID: uint32(g), Status: wire.StatusOK, Found: found, Values: values}
		return wire.AppendResponse(buf, &in, lim)
	}, decResp)
	m["wire.allocs_per_frame"] = float64(mallocs()-m0) / float64(max(frames, 1))

	// Bytes on the wire per cache-aside operation: a GET and its answer,
	// plus a SET and its status for the share that missed.
	size := func(r *wire.Response) float64 {
		b, err := wire.AppendResponse(nil, r, lim)
		note(err)
		return float64(len(b))
	}
	getMiss := size(&wire.Response{Op: wire.OpGet, Status: wire.StatusNotFound})
	setResp := size(&wire.Response{Op: wire.OpSet, Status: wire.StatusOK})
	m["wire.bytes_per_op"] = getReq + (1-missRate)*getResp + missRate*(getMiss+setReq+setResp)
	return firstErr
}

// probeKeys builds n keys no workload stream produces, with their payloads.
func probeKeys(prefix string, n int) ([]string, [][]byte) {
	keys, vals := make([]string, n), make([][]byte, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s%d", prefix, i)
		vals[i] = valueFor(keys[i], valueSize)
	}
	return keys, vals
}

// probeStemcache times stemcache's public calls one kind at a time on fresh
// caches of the workload's geometry. n bounds how much of the workload's
// sequences the mixed replays use.
func probeStemcache(m metrics, cfg stemcache.Config, tab *keyTable, seqs [][]uint32, n int) error {
	const idMask = 1<<30 - 1 // lib-churn keeps a TTL choice above the id
	type cache = stemcache.Cache[string, []byte]
	fresh := func(lru bool) (*cache, error) {
		if lru {
			return stemcache.NewShardedLRU[string, []byte](cfg)
		}
		return stemcache.New[string, []byte](cfg)
	}
	capacity := cfg.Capacity
	// A quarter of capacity stays resident without any set overflowing.
	resident, residentVals := probeKeys("r", capacity/4)
	absent, _ := probeKeys("a", capacity/4)
	rounds := 8 * len(resident)
	getHit := func(lru bool) (float64, error) {
		c, err := fresh(lru)
		if err != nil {
			return 0, err
		}
		defer c.Close()
		for i, k := range resident {
			c.Set(k, residentVals[i])
		}
		return timeChunks(rounds, func(i int) { c.Get(resident[i%len(resident)]) }), nil
	}
	var err error
	if m["stemcache.get_hit_ns"], err = getHit(false); err != nil {
		return err
	}
	if m["stemcache.lru_get_hit_ns"], err = getHit(true); err != nil {
		return err
	}

	c, err := fresh(false)
	if err != nil {
		return err
	}
	for i, k := range resident {
		c.Set(k, residentVals[i])
	}
	m["stemcache.get_miss_ns"] = timeChunks(rounds, func(i int) { c.Get(absent[i%len(absent)]) })
	m["stemcache.set_overwrite_ns"] = timeChunks(rounds, func(i int) {
		c.Set(resident[i%len(resident)], residentVals[i%len(resident)])
	})
	const allocCalls = 10_000
	m0 := mallocs()
	for i := 0; i < allocCalls; i++ {
		c.Get(resident[i%len(resident)])
	}
	m1 := mallocs()
	for i := 0; i < allocCalls; i++ {
		c.Set(resident[i%len(resident)], residentVals[i%len(resident)])
	}
	m["stemcache.allocs_per_get"] = float64(m1-m0) / allocCalls
	m["stemcache.allocs_per_set"] = float64(mallocs()-m1) / allocCalls
	m["stemcache.delete_ns"] = timeChunks(len(resident), func(i int) { c.Delete(resident[i]) })
	c.Close()

	// Inserts into a full cache: every one picks a victim. The heap cost of
	// an entry is measured on the same fill.
	fill, fillVals := probeKeys("f", 2*capacity)
	fresh1, fresh1Vals := probeKeys("n", 2*capacity)
	fresh2, fresh2Vals := probeKeys("t", 2*capacity)
	// What the cache itself allocates to hold an entry (tables included,
	// nothing is freed while it fills), plus the key and value it refers to.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	if c, err = fresh(false); err != nil {
		return err
	}
	for i, k := range fill {
		c.Set(k, fillVals[i])
	}
	runtime.ReadMemStats(&ms)
	m["stemcache.heap_bytes_per_entry"] = float64(ms.TotalAlloc-alloc0)/float64(max(c.Len(), 1)) + float64(len(fill[0])+valueSize)
	m["stemcache.set_insert_ns"] = timeChunks(len(fresh1), func(i int) { c.Set(fresh1[i], fresh1Vals[i]) })
	m["stemcache.setttl_ns"] = timeChunks(len(fresh2), func(i int) { c.SetWithTTL(fresh2[i], fresh2Vals[i], time.Minute) })
	c.Close()

	// The workload's own cache-aside mix on fresh caches: STEM against the
	// sharded LRU on one goroutine, then STEM on every worker at once.
	aside := func(c *cache, seq []uint32) {
		for _, id := range seq[:min(n, len(seq))] {
			id &= idMask
			if _, ok := c.Get(tab.keys[id]); !ok {
				c.Set(tab.keys[id], tab.vals[id])
			}
		}
	}
	timed := func(lru bool, nWorkers int) (float64, error) {
		c, err := fresh(lru)
		if err != nil {
			return 0, err
		}
		defer c.Close()
		s := runSlice(nWorkers, func(w int, _ *hist) loopStat {
			aside(c, seqs[w])
			return loopStat{}
		})
		return s.wall.Seconds(), nil
	}
	stem1, err := timed(false, 1)
	if err != nil {
		return err
	}
	lru1, err := timed(true, 1)
	if err != nil {
		return err
	}
	stemP, err := timed(false, len(seqs))
	if err != nil {
		return err
	}
	m["stemcache.stem_over_lru_ns_ratio"] = stem1 / lru1
	m["stemcache.par_speedup"] = float64(len(seqs)) * stem1 / stemP
	return nil
}

// cacheCounts reports what the eviction mechanism did during a phase, from
// the cache's public Stats at the phase's boundaries, per thousand workload
// operations; the set-role gauges are the values at the end.
func cacheCounts(m metrics, before, after stemcache.Stats, ops int64) {
	perK := func(a, b uint64) float64 { return 1000 * float64(a-b) / float64(max(ops, 1)) }
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	m["stemcache.evictions_per_kop"] = perK(after.Evictions, before.Evictions)
	m["stemcache.spills_per_kop"] = perK(after.Spills, before.Spills)
	m["stemcache.couplings_per_kop"] = perK(after.Couplings, before.Couplings)
	m["stemcache.policy_swaps_per_kop"] = perK(after.PolicySwaps, before.PolicySwaps)
	m["stemcache.expirations_per_kop"] = perK(after.Expirations, before.Expirations)
	m["stemcache.shadow_hit_ratio"] = ratio(after.ShadowHits-before.ShadowHits, after.Misses-before.Misses)
	m["stemcache.secondary_hit_share"] = ratio(after.SecondaryHits-before.SecondaryHits, after.Hits-before.Hits)
	m["stemcache.taker_sets"] = float64(after.TakerSets)
	m["stemcache.giver_sets"] = float64(after.GiverSets)
	m["stemcache.coupled_sets"] = float64(after.CoupledSets)
}
