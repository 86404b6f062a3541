//go:build !race

package experiments

import (
	"fmt"
	"testing"

	"repro/internal/workloads"
)

// table2Measured is the "measured" column of EXPERIMENTS.md's Table 2: LRU
// MPKI of the fifteen analogs at the paper's configuration.
var table2Measured = map[string]string{
	"ammp": "2.530", "apsi": "5.458", "astar": "2.595", "omnetpp": "11.583", "xalancbmk": "14.548",
	"art": "16.800", "cactusADM": "3.508", "galgel": "1.404", "mcf": "60.354", "sphinx3": "10.981",
	"gobmk": "2.221", "gromacs": "1.225", "soplex": "24.557", "twolf": "3.804", "vpr": "3.004",
}

// TestPaperHeadline gates EXPERIMENTS.md's headline directly: the full
// 15 × 6 comparison at the paper's 1 M + 3 M accesses, to the printed digit.
// It takes about 15 s on two cores, so -short and the race step skip it.
func TestPaperHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size comparison")
	}
	c, err := MainComparison(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []struct {
		metric string
		table  interface {
			Get(row, col string) (float64, bool)
		}
		want string
	}{{"MPKI", c.MPKI, "23.5"}, {"AMAT", c.AMAT, "15.3"}, {"CPI", c.CPI, "8.6"}} {
		g, ok := h.table.Get("Geomean", "STEM")
		if got := fmt.Sprintf("%.1f", 100*(1-g)); !ok || got != h.want {
			t.Errorf("STEM geomean %s improvement over LRU: %s%%, EXPERIMENTS.md says %s%%", h.metric, got, h.want)
		}
	}
	for _, b := range workloads.Suite() {
		if v, _ := c.MPKI.Get(b.Name, "STEM"); v > 1 {
			t.Errorf("%s: STEM MPKI is %.3f of LRU's, above it", b.Name, v)
		}
		if got := fmt.Sprintf("%.3f", c.Raw[b.Name]["LRU"].MPKI); got != table2Measured[b.Name] {
			t.Errorf("Table 2: %s LRU MPKI %s, EXPERIMENTS.md says %s", b.Name, got, table2Measured[b.Name])
		}
	}
}
