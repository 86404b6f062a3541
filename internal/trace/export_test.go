package trace

// Test seams for stream_test.go (package trace_test, which may import
// internal/workloads where this package's own tests may not).

// ZipfCDF is the Zipf cumulative distribution a pattern samples.
var ZipfCDF = zipfCDF

// Locator builds cum's sampling table, lets spoil (if non-nil) overwrite the
// guide, and returns the table's locate.
func Locator(cum []float64, spoil func(guide []int32)) func(u float64) int {
	t := newTable(cum)
	if spoil != nil {
		spoil(t.guide)
	}
	return t.locate
}

// SetCum returns the generator's cumulative per-set weights.
func (g *Gen) SetCum() []float64 { return g.sets.cum }
