package main

import (
	"bytes"
	"fmt"

	"repro/internal/workloads"
)

// keyTable interns the keys a workload touches. The timed loops receive a
// key as keys[id] and check a hit against vals[id], so neither key
// formatting nor value construction runs inside a measured phase.
type keyTable struct {
	keys []string
	vals [][]byte
	ids  map[string]uint32
	size int // value bytes
}

func newKeyTable(valueSize int) *keyTable {
	return &keyTable{ids: map[string]uint32{}, size: valueSize}
}

func (t *keyTable) intern(k string) uint32 {
	if id, ok := t.ids[k]; ok {
		return id
	}
	id := uint32(len(t.keys))
	t.ids[k] = id
	t.keys = append(t.keys, k)
	t.vals = append(t.vals, valueFor(k, t.size))
	return id
}

// ok reports whether got is the payload derived from key id.
func (t *keyTable) ok(id uint32, got []byte) bool { return bytes.Equal(got, t.vals[id]) }

// valueFor derives a key's payload from the key alone (FNV-1a of the key
// expanded through splitmix64), so any hit can be checked byte for byte
// without the benchmark remembering what it stored.
func valueFor(key string, size int) []byte {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 0x100000001b3
	}
	v := make([]byte, size)
	for i := range v {
		if i%8 == 0 {
			h += 0x9e3779b97f4a7c15
			z := (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			h = z ^ (z >> 31)
		}
		v[i] = byte(h >> (8 * uint(i%8)))
	}
	return v
}

// genStreams pre-generates every worker's key sequence of n draws from the
// named serving distribution (worker w draws from seed+w over its partition
// of the sweep, as stemload's workers do) and returns them as ids into one
// shared table.
func genStreams(dist string, capacity int, seed uint64, nWorkers, n, valueSize int) (*keyTable, [][]uint32, error) {
	tab := newKeyTable(valueSize)
	seqs := make([][]uint32, nWorkers)
	for w := range seqs {
		next, err := workloads.NewWorkerKeyStream(dist, capacity, seed+uint64(w), w, nWorkers)
		if err != nil {
			return nil, nil, fmt.Errorf("key stream %s: %w", dist, err)
		}
		seq := make([]uint32, n)
		for i := range seq {
			seq[i] = tab.intern(next())
		}
		seqs[w] = seq
	}
	return tab, seqs, nil
}

// splitmix is the benchmark's own seeded stream for schedules and op mixes
// (workload key draws come from internal/workloads).
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 draws from [0, 1).
func (s *splitmix) float64() float64 { return float64(s.next()>>11) / (1 << 53) }
