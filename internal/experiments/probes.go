package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/quality"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ActiveProbes evaluates the §7 "Active Measurements" extension: the
// controller orchestrates mock calls at window boundaries to fill coverage
// holes in the passive history, improving tomography and pruning. The paper
// leaves this as future work; this experiment quantifies it.
func ActiveProbes(e *Env) []*stats.Table {
	m := quality.RTT
	def := e.Default().PNR.Rate(m)
	t := &stats.Table{
		Title:   "§7 extension: active measurements to fill coverage holes (RTT)",
		Headers: []string{"probes/window", "probes placed", "PNR", "reduction vs default"},
	}
	for _, budget := range []int{0, 100, 400, 1000} {
		res := e.runProbes(fmt.Sprintf("probes-%d", budget), m, budget)
		t.AddRow(budget, res.Probes, fmtPct(res.PNR.Rate(m)),
			fmt.Sprintf("%.1f%%", reduction(def, res.PNR.Rate(m))))
	}
	return []*stats.Table{t}
}

// runProbes runs Via on a simulator with an active-probe budget.
func (e *Env) runProbes(key string, m quality.Metric, probesPerWindow int) *sim.Result {
	return memo(e, key, func() *sim.Result {
		cfg := e.Runner.Cfg
		cfg.ActiveProbesPerWindow = probesPerWindow
		runner := sim.NewRunner(e.World, cfg)
		runner.Prepare(e.Trace)
		return runner.RunOne(core.NewVia(core.DefaultViaConfig(m), e.World), e.Trace)
	})
}
