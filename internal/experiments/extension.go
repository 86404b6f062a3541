package experiments

import (
	"repro/internal/stats"
	"repro/internal/workloads"
)

// ExtensionComparison runs the extension experiment the paper leaves open:
// STEM against the RRIP family (SRRIP/DRRIP, ISCA 2010), which appeared the
// same year and became the dominant temporal baseline afterwards. The
// question is whether set-level spatiotemporal management still pays when
// the cache-level temporal baseline is stronger than DIP.
//
// Returns MPKI normalized to LRU over the full 15-analog suite with a
// geomean row; columns are DIP (for reference), SRRIP, DRRIP, STEM.
func ExtensionComparison(run RunConfig) (*stats.Table, error) {
	run = run.withDefaults()
	schemes := []string{"LRU", "DIP", "SRRIP", "DRRIP", "STEM"}
	suite := workloads.Suite()
	raw, err := schemeMatrix(suite, schemes, run)
	if err != nil {
		return nil, err
	}
	return normalizedTable("Extension: MPKI normalized to LRU (RRIP family vs STEM)",
		raw, namesOf(suite), schemes[1:], mpkiOf), nil
}
