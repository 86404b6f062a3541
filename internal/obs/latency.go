package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Log-linear bucket geometry. Each power-of-two octave is split into
// latSubBuckets linear sub-buckets, so the relative quantization error is
// bounded by 1/latSubBuckets (~3.1%) across the whole 64-bit range — the
// HdrHistogram idea with a fixed, allocation-free layout. Values below
// latSubBuckets are recorded exactly (one bucket per value).
const (
	latSubBits    = 5
	latSubBuckets = 1 << latSubBits
	latNumBuckets = (65 - latSubBits) * latSubBuckets
)

// LatencyHistogram is a log-linear distribution of uint64 samples, the
// registry's one histogram type — built for request latencies in
// microseconds, and general enough for any count (coupling lifetimes in ticks):
//
//   - Atomics-backed: Observe is lock-free and safe to call from many
//     goroutines while readers snapshot quantiles concurrently.
//   - Mergeable: per-worker histograms can be folded into one with Merge, so
//     load generators record without sharing and combine at the end.
//   - Quantile estimation: Quantile walks the cumulative counts and returns
//     the bucket's upper bound, so reported percentiles never understate.
//
// The zero value is ready to use; a nil *LatencyHistogram is a no-op sink.
// Concurrent reads see a consistent-enough view (counts may lag sums by a
// few samples), the same contract as the rest of the registry.
type LatencyHistogram struct {
	count  atomic.Uint64
	sum    atomic.Uint64
	counts [latNumBuckets]atomic.Uint64
}

// latBucketIndex maps a sample to its bucket.
func latBucketIndex(v uint64) int {
	exp := bits.Len64(v)
	if exp <= latSubBits {
		return int(v) // exact buckets for 0..latSubBuckets-1
	}
	sub := (v >> (uint(exp) - 1 - latSubBits)) & (latSubBuckets - 1)
	return (exp-latSubBits)*latSubBuckets + int(sub)
}

// LatencyBucketBound returns the inclusive upper bound of bucket i. Bounds
// are strictly increasing in i; the last bucket's bound is MaxUint64.
func LatencyBucketBound(i int) uint64 {
	if i < latSubBuckets {
		return uint64(i)
	}
	exp := i/latSubBuckets + latSubBits // bits.Len64 of the bucket's values
	sub := uint64(i & (latSubBuckets - 1))
	width := uint64(1) << (uint(exp) - 1 - latSubBits)
	lower := uint64(1)<<(uint(exp)-1) + sub*width
	return lower + width - 1
}

// Observe records one sample.
func (h *LatencyHistogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.counts[latBucketIndex(v)].Add(1)
}

// Count returns the number of samples recorded.
func (h *LatencyHistogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all recorded samples.
func (h *LatencyHistogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the arithmetic mean of recorded samples (0 when empty).
func (h *LatencyHistogram) Mean() float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Bucket returns the raw count of bucket i (0 outside the bucket range).
func (h *LatencyHistogram) Bucket(i int) uint64 {
	if h == nil || i < 0 || i >= latNumBuckets {
		return 0
	}
	return h.counts[i].Load()
}

// Quantile estimates the q-quantile (q in [0, 1]) as the inclusive upper
// bound of the bucket holding the rank-⌈q·n⌉ sample, so the estimate never
// understates the true quantile by more than the bucket width (~3.1%
// relative). Returns 0 for an empty histogram; q outside [0, 1] is clamped.
func (h *LatencyHistogram) Quantile(q float64) uint64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	q = math.Min(math.Max(q, 0), 1)
	rank := uint64(math.Ceil(q * float64(n)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < latNumBuckets; i++ {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			return LatencyBucketBound(i)
		}
	}
	// Concurrent Observe raced count ahead of the bucket store: report the
	// highest populated bound seen.
	return h.Max()
}

// Max returns the upper bound of the highest populated bucket (0 if empty).
func (h *LatencyHistogram) Max() uint64 {
	if h == nil {
		return 0
	}
	for i := latNumBuckets - 1; i >= 0; i-- {
		if h.counts[i].Load() > 0 {
			return LatencyBucketBound(i)
		}
	}
	return 0
}

// Merge folds o's samples into h (o is left unchanged). Merging a histogram
// into itself doubles it; merging nil is a no-op.
func (h *LatencyHistogram) Merge(o *LatencyHistogram) {
	if h == nil || o == nil {
		return
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	for i := 0; i < latNumBuckets; i++ {
		if c := o.counts[i].Load(); c > 0 {
			h.counts[i].Add(c)
		}
	}
}

// marshal renders the histogram as a JSON-friendly summary: count, sum and
// the headline quantiles. The full bucket vector is exposition-only (see
// WritePrometheus) — 1920 mostly-empty buckets have no place in a JSON dump.
func (h *LatencyHistogram) marshal() map[string]any {
	return map[string]any{
		"count": h.count.Load(),
		"sum":   h.sum.Load(),
		"mean":  h.Mean(),
		"p50":   h.Quantile(0.50),
		"p90":   h.Quantile(0.90),
		"p99":   h.Quantile(0.99),
		"p999":  h.Quantile(0.999),
		"max":   h.Max(),
	}
}
