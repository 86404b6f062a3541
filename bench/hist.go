package main

import (
	"math"
	"math/bits"
)

// hist is a log-linear histogram of nanosecond durations: 64 sub-buckets per
// octave (1.6 % resolution) from 0 ns to 2^63 ns. It is owned by one
// goroutine — plain adds, no atomics — so recording a sample in the timed
// path costs an index computation and an increment. Workers keep their own
// and the harness merges them after the slice ends.
type hist struct {
	counts []uint64
	n      uint64
	max    uint64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits // sub-buckets per octave
	histBuckets = (64 - histSubBits + 1) * histSub
)

func newHist() *hist { return &hist{counts: make([]uint64, histBuckets)} }

func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - histSubBits - 1 // v>>e lies in [histSub, 2*histSub)
	return (e+1)*histSub + int(v>>uint(e)) - histSub
}

// histBounds returns bucket i's inclusive lower bound and its width.
func histBounds(i int) (lo, width uint64) {
	if i < histSub {
		return uint64(i), 1
	}
	e := uint(i/histSub - 1)
	return uint64(histSub+i%histSub) << e, 1 << e
}

// record adds one duration; negative durations (a clock that stepped) count
// as zero.
func (h *hist) record(ns int64) {
	v := uint64(0)
	if ns > 0 {
		v = uint64(ns)
	}
	h.counts[histIndex(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile in nanoseconds, interpolated linearly
// inside the bucket that holds the rank, so two runs whose samples differ
// report different digits even when they land in the same bucket.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if next := cum + float64(c); next >= rank {
			lo, width := histBounds(i)
			v := float64(lo) + float64(width)*(rank-cum)/float64(c)
			return math.Min(v, float64(h.max))
		} else {
			cum = next
		}
	}
	return float64(h.max)
}

// beyond reports how many samples lie above the q-quantile: a percentile is
// only worth reporting with at least ten.
func (h *hist) beyond(q float64) uint64 {
	return h.n - uint64(math.Ceil(q*float64(h.n)))
}

// countBelow reports how many samples fall in buckets that end at or below
// ns.
func (h *hist) countBelow(ns uint64) (n uint64) {
	for _, c := range h.counts[:histIndex(ns)] {
		n += c
	}
	return n
}
