package experiments

// Engineering benchmark for the simulator: the raw per-access cost of each
// scheme. The paper's tables and figures are printed by `stemsim paper
// -only <name>` and pinned by this package's golden and invariant tests; the
// measured performance trajectory is `go -C bench run .`.

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// BenchmarkAccessLatencies measures the raw per-access simulation cost of
// each of the six schemes on the omnetpp analog at the paper's geometry. The
// references are generated before the clock starts (as bench/ does), so
// ns/op is one scheme's ns per access; a run longer than the buffer replays
// it.
func BenchmarkAccessLatencies(b *testing.B) {
	omnetpp, err := workloads.ByName("omnetpp")
	if err != nil {
		b.Fatal(err)
	}
	gen := trace.NewGen(omnetpp.Workload, PaperGeometry, 1)
	refs := make([]sim.Access, 1<<20)
	for i := range refs {
		r := gen.Next()
		refs[i] = sim.Access{Block: r.Block, Write: r.Write}
	}
	for _, name := range SchemeNames {
		b.Run(name, func(b *testing.B) {
			c, err := NewScheme(name, PaperGeometry, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Access(refs[i&(len(refs)-1)])
			}
		})
	}
}
