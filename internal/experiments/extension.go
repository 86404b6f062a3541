package experiments

import (
	"repro/internal/stats"
	"repro/internal/workloads"
)

// ExtensionComparison runs the extension experiment the paper leaves open:
// STEM against the RRIP family (SRRIP/DRRIP, ISCA 2010), which appeared the
// same year and became the dominant temporal baseline afterwards, and
// against the skewed-associative cache (SKEW, ISCA 1993), the earliest
// spatial approach the related work cites. The questions are whether
// set-level spatiotemporal management still pays when the cache-level
// temporal baseline is stronger than DIP, and where a purely spatial
// scheme beats it.
//
// Returns MPKI normalized to LRU over the full 15-analog suite with a
// geomean row; columns are DIP (for reference), SRRIP, DRRIP, SKEW, STEM.
func ExtensionComparison(run RunConfig) (*stats.Table, error) {
	run = run.withDefaults()
	schemes := []string{"LRU", "DIP", "SRRIP", "DRRIP", "SKEW", "STEM"}
	suite := workloads.Suite()
	raw, err := schemeMatrix(suite, schemes, run)
	if err != nil {
		return nil, err
	}
	return normalizedTable("Extension: MPKI normalized to LRU (RRIP family and SKEW vs STEM)",
		raw, namesOf(suite), schemes[1:], mpkiOf), nil
}
