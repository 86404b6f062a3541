package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// epoch anchors every timestamp the benchmark takes: now() is nanoseconds of
// monotonic time since process start.
var epoch = time.Now() //lint:allow(determinism) a benchmark measures wall time by definition; seeded inputs and simulated counts never read this

func now() int64 { return int64(time.Since(epoch)) }

// nSlices is how many equal-op slices a measured phase is cut into; the
// timing metrics are medians over them, which is what keeps one GC cycle or
// one scheduler hiccup from moving a reported number. The sharded-LRU
// reference replays the warm-up and the first refSlices of them.
const (
	nSlices   = 20
	refSlices = 2
)

// workers is the closed-loop client / goroutine count of every workload.
func workers() int { return min(runtime.NumCPU(), 2) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set in MB (Linux reports
// ru_maxrss in KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) (the exclusive method) gives them, which is
// how the acceptance spread of a metric is defined.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		j = max(1, min(j, n-1))
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// loopStat is what one worker's share of a slice did.
type loopStat struct {
	ops    int64 // units of work completed (round trips, batches, chunks' calls)
	gets   int64 // cache lookups among them
	hits   int64
	failed int64 // errors, wrong values
}

func (a *loopStat) add(b loopStat) {
	a.ops += b.ops
	a.gets += b.gets
	a.hits += b.hits
	a.failed += b.failed
}

// sliceStat is one slice of a measured phase, all workers merged.
type sliceStat struct {
	loopStat
	wall  time.Duration
	cpu   time.Duration
	lat   *hist
	speed float64 // hostSpeed beside the slice: the mean of the readings before and after it
}

// The host-speed kernel. This sandbox shares its CPUs and its memory system
// with other guests: for minutes at a time everything the process does runs
// at anything between 1x and 0.5x of its quiet speed, an arithmetic loop
// least, anything that misses the private caches most. hostSpeed times a
// fixed walk of dependent loads through an 8 MB table on every worker CPU at
// once and returns hostRefNs divided by what it took: about 1 on the quiet
// reference box, 0.5 when the host gives the process half of that. Timings
// are scaled by the speed read beside them (see phase.speed), so a reported
// time is the time at reference speed, and the reading as measured is
// reported next to it as raw.*. The walk also feels the workload's own
// cache footprint, so host_speed compares runs of one workload, not
// workloads.
const (
	hostRefNs = 14.5e6 // the walk's wall time on the quiet reference box
	calSteps  = 150_000
)

// walkSteps is the walk's length: calSteps, or a hundredth of it when main
// (or TestMain) shortened it at start-up for -smoke, where the sizes check
// the harness and the readings are not used for anything.
var walkSteps = calSteps

// calTable is one random cycle through 8 MB, so every step of the walk is a
// dependent load that misses the private caches.
var calTable = sync.OnceValue(func() []uint32 {
	const n = 1 << 21
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	rng := splitmix(0xCA11B8A7E)
	for i := n - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	t := make([]uint32, n)
	for i := 0; i < n; i++ {
		t[perm[i]] = perm[(i+1)%n]
	}
	return t
})

var calSink atomic.Uint32

func hostSpeed() float64 {
	t := calTable()
	var wg sync.WaitGroup
	t0 := now()
	for w := 0; w < workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			idx := uint32(w) * 7919
			for i := 0; i < walkSteps; i++ {
				idx = t[idx]
			}
			calSink.Add(idx)
		}()
	}
	wg.Wait()
	return hostRefNs * float64(walkSteps) / calSteps / float64(now()-t0)
}

// runSlice runs body on every worker concurrently and waits for all of them:
// the barrier gives the slice one wall-clock and one CPU interval. Each
// worker records latencies into its own histogram.
func runSlice(nWorkers int, body func(w int, h *hist) loopStat) sliceStat {
	hists := make([]*hist, nWorkers)
	stats := make([]loopStat, nWorkers)
	for w := range hists {
		hists[w] = newHist()
	}
	var wg sync.WaitGroup
	speed0 := hostSpeed()
	cpu0, t0 := cpuTime(), now()
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[w] = body(w, hists[w])
		}()
	}
	wg.Wait()
	out := sliceStat{wall: time.Duration(now() - t0), cpu: cpuTime() - cpu0, lat: hists[0]}
	out.speed = (speed0 + hostSpeed()) / 2
	for w := range stats {
		out.add(stats[w])
		if w > 0 {
			out.lat.merge(hists[w])
		}
	}
	return out
}

// phase is a measured phase: its slices in order.
type phase []sliceStat

// head is the phase's first n slices (all of them if it has fewer).
func (p phase) head(n int) phase { return p[:min(n, len(p))] }

func (p phase) total() (st loopStat) {
	for _, s := range p {
		st.add(s.loopStat)
	}
	return st
}

func (p phase) lat() *hist {
	h := newHist()
	for _, s := range p {
		h.merge(s.lat)
	}
	return h
}

// medianOver applies f to every slice and returns the median.
func (p phase) medianOver(f func(s sliceStat) float64) float64 {
	v := make([]float64, len(p))
	for i, s := range p {
		v[i] = f(s)
	}
	return median(v)
}

// The four per-slice readings, as measured.
func (s sliceStat) opsPerS() float64        { return float64(s.ops) / s.wall.Seconds() }
func (s sliceStat) cpuUsPerOp() float64     { return float64(s.cpu) / 1e3 / float64(max(s.ops, 1)) }
func (s sliceStat) latUs(q float64) float64 { return s.lat.quantile(q) / 1e3 }

// speed is the phase's host speed: the median of its slices' readings. The
// host's speed also moves within a slice, faster than two readings beside it
// can follow; what the scaling removes is the level the whole run ran at.
func (p phase) speed() float64 {
	return p.medianOver(func(s sliceStat) float64 { return s.speed })
}

// opsPerS is the phase's throughput at reference host speed.
func (p phase) opsPerS() float64 { return p.medianOver(sliceStat.opsPerS) / p.speed() }

// perSlice renders f of every slice, for the run's notes.
func (p phase) perSlice(f func(s sliceStat) float64) string {
	var sb strings.Builder
	for _, s := range p {
		fmt.Fprintf(&sb, " %.4g", f(s))
	}
	return sb.String()
}

// timing fills the four timing metrics every workload reports: the median
// over slices of the reading as measured (kept as raw.*), scaled to
// reference host speed by the phase's host speed. The per-slice readings go
// into the run's notes.
func (r *result) timing(p phase) {
	m := r.M
	speed := p.speed()
	m["host_speed"] = speed
	m["raw.ops_per_s"] = p.medianOver(sliceStat.opsPerS)
	m["raw.p50_us"] = p.medianOver(func(s sliceStat) float64 { return s.latUs(0.50) })
	m["raw.p99_us"] = p.medianOver(func(s sliceStat) float64 { return s.latUs(0.99) })
	m["raw.cpu_us_per_op"] = p.medianOver(sliceStat.cpuUsPerOp)
	m["ops_per_s"] = m["raw.ops_per_s"] / speed
	m["p50_us"] = m["raw.p50_us"] * speed
	m["p99_us"] = m["raw.p99_us"] * speed
	m["cpu_us_per_op"] = m["raw.cpu_us_per_op"] * speed
	m["p99_samples_beyond"] = p.medianOver(func(s sliceStat) float64 { return float64(s.lat.beyond(0.99)) })
	r.note("slice host speed:%s", p.perSlice(func(s sliceStat) float64 { return s.speed }))
	r.note("slice raw ops/s:%s", p.perSlice(sliceStat.opsPerS))
	r.note("slice raw p50 us:%s", p.perSlice(func(s sliceStat) float64 { return s.latUs(0.50) }))
	r.note("slice raw p99 us:%s", p.perSlice(func(s sliceStat) float64 { return s.latUs(0.99) }))
}

// clockNs is the cost of one now() call, calibrated once: chunk timings
// subtract it and traced runs report it.
var clockNs = sync.OnceValue(func() float64 {
	const n = 200_000
	t0 := now()
	var sink int64
	for i := 0; i < n; i++ {
		sink += now()
	}
	el := now() - t0
	if sink == 0 {
		return 0
	}
	return float64(el) / n
})
