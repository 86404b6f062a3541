package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Ablations extend the paper's sensitivity study (§5.3): they isolate the
// contribution of each STEM mechanism and sweep the hardware parameters of
// Table 3. The paper motivates these design choices qualitatively; the
// ablation harness measures them.

// AblationVariant is one STEM configuration under study.
type AblationVariant struct {
	Name string
	Cfg  core.Config
}

// ComponentVariants isolates STEM's mechanisms:
//
//	STEM            the full design
//	spatial-only    policy swapping disabled (coupling + shadow metric only)
//	temporal-only   coupling disabled (per-set LRU/BIP dueling only)
//	sbc-receive     the §4.6 receiving constraint removed (SBC-style spill)
//	bip-receive     a received block ranked as BIP ranks a fill (the library's rule)
func ComponentVariants() []AblationVariant {
	return []AblationVariant{
		{Name: "STEM", Cfg: core.Config{}},
		{Name: "spatial-only", Cfg: core.Config{DisableSwap: true}},
		{Name: "temporal-only", Cfg: core.Config{DisableCoupling: true}},
		{Name: "sbc-receive", Cfg: core.Config{UnconstrainedReceive: true}},
		{Name: "bip-receive", Cfg: core.Config{BIPReceive: true}},
	}
}

// parameterSweeps lists, per Table 3 hardware parameter, the values swept
// and the Config field each value sets.
var parameterSweeps = []struct {
	name   string
	values []int
	set    func(*core.Config, int)
}{
	{"k", []int{2, 3, 4, 5, 6}, func(c *core.Config, v int) { c.CounterBits = v }},        // counter bits
	{"n", []int{1, 2, 3, 4, 5}, func(c *core.Config, v int) { c.SpatialShift = v }},       // spatial decrement shift
	{"m", []int{4, 6, 8, 10, 14}, func(c *core.Config, v int) { c.SignatureBits = v }},    // shadow signature bits
	{"heap", []int{4, 8, 16, 32, 64}, func(c *core.Config, v int) { c.SelectorSize = v }}, // selector capacity
}

// ParameterVariants sweeps one Table 3 hardware parameter.
func ParameterVariants(param string) ([]AblationVariant, error) {
	for _, p := range parameterSweeps {
		if p.name != param {
			continue
		}
		vs := make([]AblationVariant, len(p.values))
		for i, v := range p.values {
			vs[i].Name = fmt.Sprintf("%s=%d", p.name, v)
			p.set(&vs[i].Cfg, v)
		}
		return vs, nil
	}
	return nil, fmt.Errorf("experiments: unknown ablation parameter %q (have k, n, m, heap)", param)
}

// Ablate runs the given STEM variants over the named analogs and returns a
// table of MPKI normalized to the LRU baseline (rows: benchmarks + geomean;
// columns: variants).
func Ablate(variants []AblationVariant, benchNames []string, run RunConfig) (*stats.Table, error) {
	run = run.withDefaults()
	if len(benchNames) == 0 {
		benchNames = []string{"ammp", "omnetpp", "cactusADM", "twolf"}
	}
	benches := make([]workloads.Benchmark, 0, len(benchNames))
	for _, n := range benchNames {
		b, err := workloads.ByName(n)
		if err != nil {
			return nil, err
		}
		benches = append(benches, b)
	}

	cols := make([]string, len(variants))
	for i, v := range variants {
		cols[i] = v.Name
	}
	// Column 0 is the LRU baseline; column j ≥ 1 is variants[j-1].
	raw, err := benchMatrix(benches, append([]string{"LRU"}, cols...), func(_, j int) (sim.Simulator, error) {
		if j == 0 {
			return NewScheme("LRU", run.Geom, run.Seed^0xC0FFEE)
		}
		cfg := variants[j-1].Cfg
		cfg.Seed = run.Seed ^ 0xC0FFEE
		return core.New(run.Geom, cfg), nil
	}, run)
	if err != nil {
		return nil, err
	}
	return normalizedTable("STEM ablation: MPKI normalized to LRU", raw, namesOf(benches), cols, mpkiOf), nil
}
