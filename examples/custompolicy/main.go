// Custompolicy: extend the library with a replacement policy of your own
// and race it against the built-ins on the paper's workloads.
//
// The policy.Policy interface is the per-set kernel every scheme in the
// repository is built from: the cache reports hits, inserts and
// invalidations; the policy answers "which way do I evict". This example
// implements SFIFO — FIFO with one second-chance bit — from scratch and
// runs it against LRU and BIP on a thrashing and a recency-friendly analog.
package main

import (
	"fmt"

	"repro/internal/basecache"
	"repro/internal/experiments"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// sfifo is FIFO with a second-chance (reference) bit: hits set the bit; the
// victim scan skips (and clears) referenced ways once. It approximates LRU
// at a fraction of the hardware cost — and, like LRU, it still thrashes on
// cyclic working sets, which is why STEM duels policies instead of fixing
// one.
type sfifo struct {
	order []int // FIFO queue of present ways, index 0 = oldest
	ref   []bool
	pos   []int // pos[w] = index in order, -1 if absent
}

func newSFIFO(ways int) *sfifo {
	p := &sfifo{ref: make([]bool, ways), pos: make([]int, ways)}
	for i := range p.pos {
		p.pos[i] = -1
	}
	return p
}

// sfifoKind labels SFIFO outside the built-in kinds; nothing here reads it.
const sfifoKind policy.Kind = 64

func (p *sfifo) Kind() policy.Kind { return sfifoKind }
func (p *sfifo) Len() int          { return len(p.order) }

func (p *sfifo) Reset() {
	p.order = p.order[:0]
	for i := range p.pos {
		p.pos[i] = -1
		p.ref[i] = false
	}
}

func (p *sfifo) OnHit(way int) {
	if p.pos[way] < 0 {
		p.OnInsert(way)
		return
	}
	p.ref[way] = true
}

func (p *sfifo) OnInsert(way int) {
	if p.pos[way] >= 0 {
		p.ref[way] = true
		return
	}
	p.pos[way] = len(p.order)
	p.order = append(p.order, way)
	p.ref[way] = false
}

func (p *sfifo) OnInvalidate(way int) {
	i := p.pos[way]
	if i < 0 {
		return
	}
	copy(p.order[i:], p.order[i+1:])
	p.order = p.order[:len(p.order)-1]
	for j := i; j < len(p.order); j++ {
		p.pos[p.order[j]] = j
	}
	p.pos[way] = -1
	p.ref[way] = false
}

func (p *sfifo) Victim() int {
	if len(p.order) == 0 {
		return -1
	}
	for pass := 0; pass < 2; pass++ {
		for i, w := range p.order {
			if !p.ref[w] {
				// Rotate the skipped prefix to the back, keeping FIFO order.
				p.order = append(p.order[i:], p.order[:i]...)
				for j, ww := range p.order {
					p.pos[ww] = j
				}
				return w
			}
			p.ref[w] = false // second chance consumed
		}
	}
	return p.order[0]
}

func main() {
	geom := sim.Geometry{Sets: 512, Ways: 16, LineSize: 64}
	cfg := experiments.RunConfig{Geom: geom, Warmup: 200_000, Measure: 600_000}

	// Each contender is a per-set policy factory; basecache.New builds the
	// same set-associative cache around any of them.
	policies := map[string]basecache.PolicyFactory{
		"LRU":   func(set, ways int, rng *sim.RNG) policy.Policy { return policy.New(policy.LRU, ways, rng) },
		"BIP":   func(set, ways int, rng *sim.RNG) policy.Policy { return policy.New(policy.BIP, ways, rng) },
		"SFIFO": func(set, ways int, rng *sim.RNG) policy.Policy { return newSFIFO(ways) },
	}

	for _, bench := range []string{"mcf", "gobmk"} {
		b, err := workloads.ByName(bench)
		if err != nil {
			panic(err)
		}
		fmt.Printf("== %s (Class %d) ==\n", b.Name, b.Class)
		for _, name := range []string{"LRU", "BIP", "SFIFO"} {
			cache := basecache.New(name, geom, 1, policies[name])
			gen := trace.NewGen(b.Workload, geom, 7)
			res := experiments.Run(cache, gen, cfg)
			fmt.Printf("  %-6s miss rate %.4f   MPKI %.3f\n", name, res.MissRate, res.MPKI)
		}
		fmt.Println()
	}
	fmt.Println("SFIFO tracks LRU on the recency-friendly workload and, like LRU,")
	fmt.Println("collapses on the thrashing one — single fixed policies always have a")
	fmt.Println("comfort zone, which is the paper's case for set-level adaptation.")
}
