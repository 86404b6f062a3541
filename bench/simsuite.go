package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// sim-suite runs the simulator on one benchmark of each class of the paper's
// taxonomy, under the LRU baseline and under STEM, at the paper's geometry.
// Simulated statistics are exact functions of the seed; host time is the
// sandbox's.
const (
	simChunk = 512 // accesses per timed chunk

	// Frozen sizing (accesses per second of budget, per run): six runs of
	// warm-up + measured accesses take about --seconds on the reference box.
	simWarmPerS    = 130_000
	simMeasurePerS = 800_000
)

var (
	simBenches = []string{"omnetpp", "mcf", "twolf"} // class I, II, III
	simSchemes = []string{"LRU", "STEM"}
)

// replay is a trace.Generator over references generated in set-up. It owns
// the timing of a run: experiments.Run owns the loop, so the generator reads
// the clock every simChunk references of the measured part and at the slice
// boundaries.
type replay struct {
	blocks []uint64
	meta   []uint32 // instrs<<1 | write
	pos    int
	warm   int
	slice  int // measured accesses per slice
	left   int // references until the next tick

	last   int64
	marks  [nSlices + 1]int64 // when slice k began (marks[nSlices]: when the last one ended)
	ends   [nSlices + 1]int64 // when slice k-1 ended: marks[k] minus the host-speed reading between them
	cpu    [nSlices + 1]time.Duration
	cpuEnd [nSlices + 1]time.Duration
	speeds [nSlices + 1]float64 // hostSpeed at slice boundary k
	chunks [nSlices]*hist
	log    *spanLog
}

func (r *replay) Next() trace.Ref {
	if r.left == 0 {
		r.tick()
	}
	r.left--
	m := r.meta[r.pos]
	ref := trace.Ref{Block: r.blocks[r.pos], Write: m&1 == 1, Instrs: m >> 1}
	r.pos++
	return ref
}

// tick runs before reference pos is handed out, whenever a chunk boundary
// (or the warm-up boundary) is reached; finish calls it once more after the
// run's last reference.
func (r *replay) tick() {
	t := now()
	done := r.pos - r.warm // measured references handed out so far
	switch {
	case done < 0:
		r.left = r.warm - r.pos
		return
	case done > 0:
		s := (done - 1) / r.slice
		r.chunks[s].record(t - r.last)
		if r.log != nil {
			op := uint32(done / simChunk)
			root := r.log.add(spOp, -1, op, r.last, 0)
			r.log.add(spCoreAccess, root, op, r.last, t)
			t = now()
			r.log.spans[root].end = t
		}
	}
	if done%r.slice == 0 {
		// A slice boundary: read the host's speed between the two slices,
		// outside both.
		k := done / r.slice
		r.ends[k], r.cpuEnd[k] = t, cpuTime()
		r.speeds[k] = hostSpeed()
		t = now()
		r.marks[k], r.cpu[k] = t, cpuTime()
	}
	r.last = t
	r.left = simChunk
}

// sliceWall is how long measured slice s took.
func (r *replay) sliceWall(s int) time.Duration { return time.Duration(r.ends[s+1] - r.marks[s]) }

// measuredWall is how long the measured accesses took, the host-speed
// readings between slices left out.
func (r *replay) measuredWall() (d time.Duration) {
	for s := 0; s < nSlices; s++ {
		d += r.sliceWall(s)
	}
	return d
}

func (r *replay) reset(log *spanLog) {
	r.pos, r.left, r.log = 0, 0, log
	for s := range r.chunks {
		r.chunks[s] = newHist()
	}
}

// simRun is one (benchmark, scheme) run's outcome.
type simRun struct {
	bench, scheme string
	res           experiments.RunResult
	rp            replay // timing marks, host-speed readings and chunk histograms
}

// simStats is what the goldens pin: every simulated count of a run.
type simStats struct {
	Stats sim.Stats `json:"stats"`
	MPKI  float64   `json:"mpki"`
}

//go:embed goldens.json
var goldensJSON []byte

func goldenKey(seed uint64, warm, measure int, bench, scheme string) string {
	return fmt.Sprintf("%#x/%d/%d/%s/%s", seed, warm, measure, bench, scheme)
}

func loadGoldens() (map[string]simStats, error) {
	g := map[string]simStats{}
	if err := json.Unmarshal(goldensJSON, &g); err != nil {
		return nil, fmt.Errorf("goldens.json: %w", err)
	}
	return g, nil
}

// generate draws a benchmark's reference stream into r's buffers and returns
// the generator's cost per reference.
func (r *replay) generate(b workloads.Benchmark, seed uint64, n int) float64 {
	if cap(r.blocks) < n {
		r.blocks, r.meta = make([]uint64, n), make([]uint32, n)
	}
	r.blocks, r.meta = r.blocks[:n], r.meta[:n]
	t0 := now()
	gen := trace.NewGen(b.Workload, experiments.PaperGeometry, seed)
	for i := 0; i < n; i++ {
		ref := gen.Next()
		w := uint32(0)
		if ref.Write {
			w = 1
		}
		r.blocks[i], r.meta[i] = ref.Block, ref.Instrs<<1|w
	}
	return float64(now()-t0) / float64(n)
}

// simulate runs one scheme over the generated references exactly as
// experiments.RunWorkload would (same scheme seed, same reference stream),
// with the generator's cost moved out of the timed loop.
func (r *replay) simulate(scheme string, cfg experiments.RunConfig, log *spanLog) (experiments.RunResult, error) {
	s, err := experiments.NewScheme(scheme, experiments.PaperGeometry, cfg.Seed^0xC0FFEE)
	if err != nil {
		return experiments.RunResult{}, err
	}
	r.reset(log)
	res := experiments.Run(s, r, cfg)
	r.tick()
	return res, nil
}

func runSimSuite(cfg runConfig) (*result, error) {
	res := newResult(cfg, "sim-suite")
	slice := max(cfg.scale(simMeasurePerS/nSlices/simChunk, 1), 1) * simChunk
	warm, measure := cfg.scale(simWarmPerS, simChunk), nSlices*slice
	rcfg := experiments.RunConfig{Warmup: warm, Measure: measure, Seed: cfg.seed}
	goldens, err := loadGoldens()
	if err != nil {
		return nil, err
	}

	var rp replay
	rp.warm, rp.slice = warm, slice
	var runs []simRun
	var setup, rawSetup time.Duration
	var genNs []float64
	var log *spanLog
	if cfg.traced {
		log = newSpanLog(2 * len(simBenches) * measure / simChunk) // per chunk of a STEM run: root and core.access
	}
	var baseRate float64 // traced: untraced omnetpp/STEM accesses per second
	for _, name := range simBenches {
		b, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		speed0 := hostSpeed()
		t0 := now()
		genNs = append(genNs, rp.generate(b, cfg.seed, warm+measure))
		el := float64(now() - t0)
		rawSetup += time.Duration(el)
		speed0 = (speed0 + hostSpeed()) / 2
		setup += time.Duration(el * speed0)
		if cfg.traced && name == simBenches[0] {
			if _, err := rp.simulate("STEM", rcfg, nil); err != nil {
				return nil, err
			}
			baseRate = float64(measure) / rp.measuredWall().Seconds()
		}
		for _, scheme := range simSchemes {
			runLog := log
			if scheme != "STEM" {
				runLog = nil // spans follow the system under test; LRU is the reference
			}
			out, err := rp.simulate(scheme, rcfg, runLog)
			if err != nil {
				return nil, err
			}
			runs = append(runs, simRun{bench: name, scheme: scheme, res: out, rp: rp})
			res.Attempted += int64(measure)
			st := out.Stats
			if st.Hits+st.Misses != st.Accesses || st.Accesses != uint64(measure) {
				res.fail("%s/%s: hits %d + misses %d != accesses %d (want %d)", name, scheme, st.Hits, st.Misses, st.Accesses, measure)
			}
			key := goldenKey(cfg.seed, warm, measure, name, scheme)
			got := simStats{Stats: st, MPKI: out.MPKI}
			if cfg.goldenOut != nil {
				cfg.goldenOut[key] = got
			} else if want, ok := goldens[key]; ok && want != got {
				res.fail("%s: simulated statistics %+v differ from golden %+v", key, got, want)
			}
		}
	}

	m := res.M
	m["setup_s"], m["raw.setup_s"] = setup.Seconds(), rawSetup.Seconds()
	// Slice s of the phase is slice s of all six runs together (its host
	// speed: the readings beside each run's slice, weighted by that run's
	// share of the time); chunk latency is over the STEM runs only (LRU's
	// chunks are about twice as fast, and a percentile of the two mixed would
	// sit on the seam between them).
	var ph phase
	for s := 0; s < nSlices; s++ {
		st := sliceStat{lat: newHist()}
		for i := range runs {
			rp := &runs[i].rp
			wall := rp.sliceWall(s)
			st.ops += int64(slice)
			st.wall += wall
			st.cpu += rp.cpuEnd[s+1] - rp.cpu[s]
			st.speed += (rp.speeds[s] + rp.speeds[s+1]) / 2 * float64(wall)
			if runs[i].scheme == "STEM" {
				st.lat.merge(rp.chunks[s])
			}
		}
		st.speed /= float64(st.wall)
		ph = append(ph, st)
	}
	var stemHits, stemAcc uint64
	normLog, lruErr := 0.0, 0.0
	hostNs := map[string][]float64{}
	var stem sim.Stats
	for i := 0; i < len(runs); i += 2 {
		lru, st := runs[i], runs[i+1]
		b, _ := workloads.ByName(lru.bench)
		normLog += math.Log(st.res.MPKI / lru.res.MPKI)
		lruErr += math.Abs(lru.res.MPKI-b.PaperMPKI) / b.PaperMPKI
		stemHits += st.res.Stats.Hits
		stemAcc += st.res.Stats.Accesses
		m["core.mpki."+lru.bench] = st.res.MPKI
		m["basecache.mpki."+lru.bench] = lru.res.MPKI
		for _, r := range []simRun{lru, st} {
			el := r.rp.measuredWall()
			hostNs[r.scheme] = append(hostNs[r.scheme], float64(el)/float64(measure))
		}
		s := st.res.Stats
		stem.Accesses += s.Accesses
		stem.SecondaryRefs += s.SecondaryRefs
		stem.SecondaryHits += s.SecondaryHits
		stem.Spills += s.Spills
		stem.Couplings += s.Couplings
		stem.PolicySwaps += s.PolicySwaps
		stem.ShadowHits += s.ShadowHits
	}
	n := float64(len(simBenches))
	missNorm, mpkiErr := math.Exp(normLog/n), lruErr/n
	perK := func(c uint64) float64 { return 1000 * float64(c) / float64(stem.Accesses) }
	m["core.ns_per_access"] = median(hostNs["STEM"])
	m["basecache.ns_per_access"] = median(hostNs["LRU"])
	m["core.over_lru_host_ratio"] = m["core.ns_per_access"] / m["basecache.ns_per_access"]
	m["trace.next_ns_per_ref"] = median(genNs)
	m["core.secondary_probe_ratio"] = float64(stem.SecondaryRefs) / float64(stem.Accesses)
	m["core.secondary_hit_ratio"] = float64(stem.SecondaryHits) / float64(max(stem.SecondaryRefs, 1))
	m["core.spills_per_kaccess"] = perK(stem.Spills)
	m["core.couplings_per_kaccess"] = perK(stem.Couplings)
	m["core.policy_swaps_per_kaccess"] = perK(stem.PolicySwaps)
	m["core.shadow_hits_per_kaccess"] = perK(stem.ShadowHits)
	m["core.stem_mpki_norm"] = missNorm
	m["basecache.lru_mpki_err"] = mpkiErr
	if !cfg.traced {
		res.timing(ph)
		m["hit_rate"] = float64(stemHits) / float64(stemAcc)
		m["miss_norm"] = missNorm
		res.finish()
		return res, nil
	}
	m["bench.clock_ns"] = clockNs()
	m["bench.trace_overhead_pct"] = 100 * (1 - 1e9/hostNs["STEM"][0]/baseRate)
	res.tracedLatency(ph.lat())
	if err := res.traceOut(cfg, []*spanLog{log}, simChunk); err != nil {
		return nil, err
	}
	res.finish()
	return res, nil
}
