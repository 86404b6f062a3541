// Package obs is the repository's observability layer: a lightweight
// metrics registry (typed counters, gauges and log-linear histograms, plus
// counters and gauges derived when the registry is read), a structured event
// trace for the STEM/SBC coupling mechanisms, periodic run snapshots, and an
// HTTP endpoint that exposes all of it live — as JSON and as Prometheus text
// exposition — while a simulation or server runs.
//
// The package is stdlib-only and built around two rules:
//
//  1. Disabled observability must cost (near) nothing on the Access hot
//     path. Every metric method is nil-receiver safe, so instrumented code
//     holds plain pointers and never branches beyond one nil check; the
//     schemes additionally guard event construction behind a single
//     `observer != nil` test.
//
//  2. Reads may be concurrent with the simulation. All metric cells are
//     atomics, so the HTTP endpoint can serve a consistent-enough JSON view
//     of a registry while the (single-goroutine) simulators mutate it.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric. The zero value is
// ready to use; a nil *Counter is a no-op sink.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds d.
func (c *Counter) Add(d uint64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) reset() { c.v.Store(0) }

// Gauge is a last-write-wins float64 metric. A nil *Gauge is a no-op sink.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last stored value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) reset() { g.bits.Store(0) }

// Registry is a named collection of metrics. Metric constructors are
// idempotent: asking twice for the same name returns the same cell, so
// independent components can share totals. All methods are safe for
// concurrent use, and every method on a nil *Registry returns a nil metric
// (itself a no-op sink) — callers never need to special-case "observability
// off".
type Registry struct {
	mu      sync.Mutex
	metrics map[string]any // *Counter | *Gauge | *LatencyHistogram | func() float64 | derivedCounter
	sources []func(emit func(name string, v uint64))
}

// derivedCounter reserves the name of a counter nobody increments: its value
// is summed, on every read of the registry, over what the CounterFuncs
// sources emit under the name.
type derivedCounter struct{}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]any{}}
}

// registered returns the metric under name as a T; ok is false when the name
// is still free. Caller holds r.mu.
func registered[T any](r *Registry, name string) (t T, ok bool) {
	m, ok := r.metrics[name]
	if !ok {
		return t, false
	}
	if t, ok = m.(T); !ok {
		// invariant: a metric name maps to one metric type for the life of the registry; re-registering under another type is caller corruption.
		panic(fmt.Sprintf("obs: metric %q already registered with a different type (%T)", name, m))
	}
	return t, true
}

func lookup[T any](r *Registry, name string, make func() T) T {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := registered[T](r, name)
	if !ok {
		t = make()
		r.metrics[name] = t
	}
	return t
}

// Counter returns the counter registered under name, creating it on first
// use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return lookup(r, name, func() *Counter { return &Counter{} })
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return lookup(r, name, func() *Gauge { return &Gauge{} })
}

// Latency returns the log-linear histogram registered under name, creating
// it on first use.
func (r *Registry) Latency(name string) *LatencyHistogram {
	if r == nil {
		return nil
	}
	return lookup(r, name, func() *LatencyHistogram { return &LatencyHistogram{} })
}

// GaugeFunc registers a derived read-only gauge computed at serve time.
// Re-registering a name replaces the function.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	registered[func() float64](r, name)
	r.metrics[name] = fn
}

// CounterFuncs registers counters derived on read, for a component that
// already counts under a lock of its own: every Snapshot or WritePrometheus
// calls read once, and read emits each counter's name and current value.
// Nothing is written on the component's request path. read must emit the
// same names every time; CounterFuncs calls it once to learn them. Several
// components may emit the same name (servers sharing one registry); the
// exported value is their sum. The registry keeps read, and what it closes
// over, for its own lifetime.
func (r *Registry) CounterFuncs(read func(emit func(name string, v uint64))) {
	if r == nil {
		return
	}
	var names []string
	read(func(name string, _ uint64) { names = append(names, name) })
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range names {
		registered[derivedCounter](r, n)
		r.metrics[n] = derivedCounter{}
	}
	r.sources = append(r.sources, read)
}

// Names returns all registered metric names, sorted.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Reset zeroes every counter, gauge and histogram cell. Derived gauges and
// counters are left alone: their values belong to the component that
// registered them. It pairs with sim.Simulator.ResetStats: discard warm-up,
// keep the metric cells and their registrations.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.metrics {
		switch m := m.(type) {
		case *Counter:
			m.reset()
		case *Gauge:
			m.reset()
		case *LatencyHistogram:
			m.reset()
		}
	}
}

// read evaluates the registry: a uint64 per counter (derived ones summed
// over their sources), a float64 per gauge, and histograms as they are. The
// cells and sources are copied under the lock; the derived functions run
// outside it, because they take their components' own locks.
func (r *Registry) read() map[string]any {
	r.mu.Lock()
	out := make(map[string]any, len(r.metrics))
	for n, m := range r.metrics {
		out[n] = m
	}
	sources := r.sources
	r.mu.Unlock()
	for n, m := range out {
		switch m := m.(type) {
		case *Counter:
			out[n] = m.Value()
		case derivedCounter:
			out[n] = uint64(0)
		case *Gauge:
			out[n] = m.Value()
		case func() float64:
			out[n] = m()
		}
	}
	for _, src := range sources {
		src(func(name string, v uint64) {
			if sum, ok := out[name].(uint64); ok {
				out[name] = sum + v
			}
		})
	}
	return out
}

// Snapshot returns a JSON-marshalable view of every metric. Map keys are
// the metric names; json.Marshal renders them in sorted order, so the
// output is stable.
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return nil
	}
	out := r.read()
	for n, m := range out {
		if h, ok := m.(*LatencyHistogram); ok {
			out[n] = h.marshal()
		}
	}
	return out
}

// WriteJSON writes the registry snapshot as indented JSON ("null" for a nil
// registry, mirroring Snapshot).
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "null\n")
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// ServeHTTP implements http.Handler, serving the registry as JSON — the
// expvar-style live view behind the cmd tools' -metrics flag. A nil registry
// serves "null", keeping the package's nil-receiver guarantee.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	if r == nil {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_, _ = io.WriteString(w, "null\n")
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = r.WriteJSON(w)
}
