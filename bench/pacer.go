package main

import (
	"math"
	"sync"
)

// The open-loop generator. Each worker paces its own schedule by spinning on
// the clock until an arrival is due and then issuing it on the same
// goroutine. It never sleeps: the Go runtime rounds a sub-millisecond sleep
// up to a millisecond when the process is otherwise idle (cmd/stemload's
// per-arrival time.Sleep is why its open-loop p50 reads 450 us on a server
// whose round trip takes 13), and on this sandbox an idle virtual CPU takes
// 100-700 us to wake, which at 5 k or 15 k arrivals a second would be most of
// every sample. It never yields either: a goroutine that spins through
// runtime.Gosched stays runnable, so its P never reaches the scheduler's
// network poll and a ready connection waits for sysmon's, ten milliseconds
// later. A spinning worker holds its CPU between arrivals and gives it up
// exactly while its own request is in flight, which is when the server and
// the client's read need it; workers() never exceeds the CPU count, so every
// worker has one.

// poissonSchedule returns n arrival offsets (ns from the step's start) of a
// Poisson process at rate arrivals per second, drawn from seed.
func poissonSchedule(n int, rate float64, seed uint64) []int64 {
	rng := splitmix(seed)
	out := make([]int64, n)
	var t float64
	for i := range out {
		// Exponential gap -ln(1-U)/rate; U < 1, so the log is finite.
		t += -math.Log(1-rng.float64()) / rate * 1e9
		out[i] = int64(t)
	}
	return out
}

// openSlices is how many slices an open-loop step's latencies are kept in: a
// step is a third of the run and its lowest rate is 5 k arrivals a second, so
// more slices would leave a p99 with fewer than ten samples beyond it.
const openSlices = 5

// openWorker is what one worker of an open-loop step measured.
type openWorker struct {
	lat  []*hist // per slice of its schedule: completion minus due time
	lag  []*hist // per slice: start minus due time — the backlog it carries
	late *hist   // start minus due time of arrivals that found the worker idle
}

func newOpenWorker() *openWorker {
	o := &openWorker{late: newHist()}
	for s := 0; s < openSlices; s++ {
		o.lat = append(o.lat, newHist())
		o.lag = append(o.lag, newHist())
	}
	return o
}

// openLoop runs one step: worker w calls call(w, i) for arrival i of
// scheds[w] (offsets from base), in order, no earlier than its due time.
// Latency is measured from the due time, so a stalled target charges its
// stall to every arrival queued behind it. late is the generator's own
// lateness — how long after its due time an arrival started although its
// worker was idle — which a latency number should not be trusted beyond.
func openLoop(base int64, scheds [][]int64, call func(w, i int)) []*openWorker {
	outs := make([]*openWorker, len(scheds))
	var wg sync.WaitGroup
	for w, sched := range scheds {
		outs[w] = newOpenWorker()
		wg.Add(1)
		go func() {
			defer wg.Done()
			o, free := outs[w], base
			per := (len(sched) + openSlices - 1) / openSlices
			for i, off := range sched {
				due := base + off
				start := now()
				for start < due {
					start = now()
				}
				o.lag[i/per].record(start - due)
				if free <= due {
					o.late.record(start - due)
				}
				call(w, i)
				free = now()
				o.lat[i/per].record(free - due)
			}
		}()
	}
	wg.Wait()
	return outs
}
