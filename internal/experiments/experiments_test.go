package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/quality"
)

// sharedEnv is built once: experiments cache strategy runs inside it, so
// tests stay fast.
var sharedEnv *Env

func env(t *testing.T) *Env {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment environment is slow")
	}
	if sharedEnv == nil {
		sharedEnv = NewEnv(1, 60000)
	}
	return sharedEnv
}

func TestRegistryComplete(t *testing.T) {
	names := map[string]bool{}
	for _, e := range Registry() {
		if e.Name == "" || e.Desc == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if names[e.Name] {
			t.Errorf("duplicate experiment %q", e.Name)
		}
		names[e.Name] = true
	}
	// Every figure/table in the paper's evaluation must be present.
	for _, want := range []string{
		"table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
		"fig8", "fig9", "fig12a", "fig12b", "mix", "fig13", "fig14",
		"fig15", "fig16", "fig17a", "fig17b", "fig17c", "tomo",
	} {
		if !names[want] {
			t.Errorf("experiment %q missing from registry", want)
		}
	}
	if _, err := Lookup("fig12a"); err != nil {
		t.Error(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

var update = flag.Bool("update", false, "rewrite testdata/golden from this run's tables")

// TestEveryExperimentProducesTables runs every registered experiment on
// the shared seed-1, 60k-call Env and compares its tables (title and CSV)
// exactly with testdata/golden/<name>.csv, so a change that moves any
// reproduced number fails here with the first differing line; rerun with
// -update to accept it. fig18 and chaos run real sockets, take no Env and
// are not in Registry(), so they have no golden.
func TestEveryExperimentProducesTables(t *testing.T) {
	e := env(t)
	for _, exp := range Registry() {
		exp := exp
		t.Run(exp.Name, func(t *testing.T) {
			tables := exp.Run(e)
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			var got strings.Builder
			for _, tb := range tables {
				s := tb.String()
				if !strings.Contains(s, "==") {
					t.Errorf("table missing title: %q", s[:min(len(s), 60)])
				}
				if len(tb.Rows) == 0 {
					t.Errorf("table %q has no rows", tb.Title)
				}
				csv := tb.CSV()
				if csv == "" {
					t.Errorf("table %q has no CSV", tb.Title)
				}
				fmt.Fprintf(&got, "# %s\n%s\n", tb.Title, csv)
			}
			checkGolden(t, filepath.Join("testdata", "golden", exp.Name+".csv"), got.String())
		})
	}
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run TestEveryExperimentProducesTables -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got  %q\n want %q\n(rerun with -update if the change is intended)", path, i+1, g, w)
		}
	}
}

func TestFig1CorrelationShape(t *testing.T) {
	e := env(t)
	// Fig 1's claim: PCR correlates strongly with every metric.
	for _, tb := range Fig1(e) {
		last := tb.Rows[len(tb.Rows)-1]
		if last[0] != "corr" {
			t.Fatalf("missing correlation row in %q", tb.Title)
		}
		corr, err := strconv.ParseFloat(last[3], 64)
		if err != nil {
			t.Fatalf("bad corr cell %q", last[3])
		}
		if corr < 0.85 {
			t.Errorf("%s: correlation %v below the paper's ~0.9+", tb.Title, corr)
		}
	}
}

func TestFig8OracleShape(t *testing.T) {
	e := env(t)
	def := e.Default()
	for _, m := range quality.AllMetrics() {
		orc := e.OracleFor(m)
		red := reduction(def.PNR.Rate(m), orc.PNR.Rate(m))
		if red < 30 || red > 85 {
			t.Errorf("oracle %s PNR reduction %.1f%%, paper envelope is ~30-65%%", m, red)
		}
	}
}

func TestFig12aOrderingShape(t *testing.T) {
	e := env(t)
	def := e.Default()
	base := def.PNR.AtLeastOneBadRate()
	worstOf := func(get func(quality.Metric) float64) float64 {
		w := 0.0
		for _, m := range quality.AllMetrics() {
			if v := get(m); v > w {
				w = v
			}
		}
		return w
	}
	via := reduction(base, worstOf(func(m quality.Metric) float64 { return e.ViaFor(m).PNR.AtLeastOneBadRate() }))
	oracle := reduction(base, worstOf(func(m quality.Metric) float64 { return e.OracleFor(m).PNR.AtLeastOneBadRate() }))
	predict := reduction(base, worstOf(func(m quality.Metric) float64 { return e.PredictOnlyFor(m).PNR.AtLeastOneBadRate() }))
	if !(oracle > via && via > predict && predict > 0) {
		t.Errorf("ordering violated: oracle=%.1f via=%.1f strawmanI=%.1f", oracle, via, predict)
	}
	if via < 0.5*oracle {
		t.Errorf("via (%.1f%%) not close to oracle (%.1f%%)", via, oracle)
	}
}

func TestFig16BudgetShape(t *testing.T) {
	e := env(t)
	// At a 30% budget the aware variant must beat the unaware one (the
	// paper's Fig 16 core claim).
	m := quality.RTT
	aware := e.ViaVariant("t-aware-0.30", m, func(c *core.ViaConfig) { c.Budget = 0.3; c.BudgetAware = true })
	unaware := e.ViaVariant("t-unaware-0.30", m, func(c *core.ViaConfig) { c.Budget = 0.3; c.BudgetAware = false })
	if aware.PNR.AtLeastOneBadRate() >= unaware.PNR.AtLeastOneBadRate() {
		t.Errorf("budget-aware PNR %.4f not below budget-unaware %.4f at B=0.3",
			aware.PNR.AtLeastOneBadRate(), unaware.PNR.AtLeastOneBadRate())
	}
}

func TestDecisionCachingShape(t *testing.T) {
	e := env(t)
	// §7's cache sits at the client and reports go to the controller, so
	// the cache saves controller load, and saves more the longer its TTL.
	// The rows come from memoised runs, so re-reading the table must print
	// the same savings as the first run did.
	prev := 0.0
	for _, row := range DecisionCaching(e)[0].Rows[1:] {
		saved, err := strconv.ParseFloat(strings.TrimSuffix(row[1], "%"), 64)
		if err != nil {
			t.Fatalf("TTL %s: bad saved cell %q", row[0], row[1])
		}
		if saved <= prev {
			t.Errorf("TTL %s: saved %.1f%%, want > %.1f%%", row[0], saved, prev)
		}
		prev = saved
	}
}

func TestHistoryFromSurveyCoversOptions(t *testing.T) {
	e := env(t)
	pairs := e.Runner.EligiblePairs()
	if len(pairs) == 0 {
		t.Skip("no eligible pairs at this scale")
	}
	h := historyFromSurvey(e, pairs[:1], 0, 2)
	opts := h.Options(pairs[0].A, pairs[0].B, 0)
	if len(opts) < 5 {
		t.Errorf("survey covered only %d options", len(opts))
	}
	for _, oc := range opts {
		if oc.N != 2 {
			t.Errorf("option %v has %d samples, want 2", oc.Option, oc.N)
		}
	}
}

func TestFig18Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("deployment experiment is slow")
	}
	tables, err := Fig18(QuickFig18Config())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 || len(tables[0].Rows) < 3 {
		t.Fatalf("thin fig18 output: %+v", tables)
	}
}
