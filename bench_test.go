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
// each of the six schemes on the omnetpp analog at the paper's geometry.
func BenchmarkAccessLatencies(b *testing.B) {
	for _, name := range stem.Schemes() {
		b.Run(name, func(b *testing.B) {
			geom := stem.PaperGeometry
			c, err := stem.NewScheme(name, geom, 1)
			if err != nil {
				b.Fatal(err)
			}
			gen := stem.NewGenerator(stem.MustBenchmark("omnetpp").Workload, geom, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := gen.Next()
				c.Access(stem.Access{Block: r.Block, Write: r.Write})
			}
		})
	}
}
