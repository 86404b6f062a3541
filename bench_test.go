// Engineering benchmark for the simulator: the raw per-access cost of each
// scheme. The paper's tables and figures are printed by `stemsim paper
// -only <name>` and pinned by internal/experiments' golden and invariant tests; the
// measured performance trajectory is `go -C bench run .`.
package stem_test

import (
	"testing"

	stem "repro"
)

// BenchmarkAccessLatencies measures the raw per-access simulation cost of
// each of the six schemes on the omnetpp analog at the paper's geometry. The
// references are generated before the clock starts (as bench/ does), so
// ns/op is one scheme's ns per access; a run longer than the buffer replays
// it.
func BenchmarkAccessLatencies(b *testing.B) {
	geom := stem.PaperGeometry
	gen := stem.NewGenerator(stem.MustBenchmark("omnetpp").Workload, geom, 1)
	refs := make([]stem.Access, 1<<20)
	for i := range refs {
		r := gen.Next()
		refs[i] = stem.Access{Block: r.Block, Write: r.Write}
	}
	for _, name := range stem.Schemes() {
		b.Run(name, func(b *testing.B) {
			c, err := stem.NewScheme(name, geom, 1)
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
