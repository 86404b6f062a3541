// Package clock is the serving stack's logical time: the instant stemcache
// measures TTL deadlines against, and the client's retry and the cluster
// client's failover waits. Connection deadlines stay on the OS clock, since
// the netpoller checks them against real time. Every loop that sleeps on a
// Clock is bounded by a count or by the sum of its own sleeps, never by a
// clock read, so a Manual clock cannot hang one.
package clock

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Clock is monotonic nanoseconds since a fixed instant (Now) and a wait
// (Sleep).
type Clock interface {
	Now() int64
	Sleep(d time.Duration)
}

// Real is the OS's monotonic clock since the process started: a wall-clock
// step (NTP, date) moves no reading, and a reading costs one clock read, not
// time.Now's two.
var Real Clock = osClock{}

var epoch = time.Now() //lint:allow(determinism) logical time's one OS reading; eviction decisions never read a clock

type osClock struct{}

func (osClock) Now() int64            { return int64(time.Since(epoch)) }
func (osClock) Sleep(d time.Duration) { time.Sleep(d) }

// Manual is a Clock only Advance and Sleep move. The zero value reads 0;
// it is safe for concurrent use.
type Manual struct{ t atomic.Int64 }

// Now returns how far m has been moved.
func (m *Manual) Now() int64 { return m.t.Load() }

// Advance moves m forward by d.
func (m *Manual) Advance(d time.Duration) { m.t.Add(int64(d)) }

// Sleep advances m by d and yields: a loop's total wait reads as m's advance.
func (m *Manual) Sleep(d time.Duration) { m.Advance(d); runtime.Gosched() }
