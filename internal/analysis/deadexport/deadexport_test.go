package deadexport_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/deadexport"
	"repro/internal/analysis/driver"
	"repro/internal/analysis/framework"
)

var fixtureConfig = deadexport.Config{
	Targets: []string{"internal"},
	Exempt:  []string{"internal/transport/codectest", "internal/analysis/analysistest"},
}

// TestWholeModule loads the fixture module whole, with bench as its
// referrer: every rule in a.go is checked against its want comments.
func TestWholeModule(t *testing.T) {
	analysistest.RunLoad(t, "testdata", deadexport.New(fixtureConfig), analysistest.Load{
		Pkgs: []string{
			"internal/a", "internal/b", "internal/transport/codectest",
			"internal/analysis/analysistest", "via", "cmd/x",
		},
		Referrers: []string{"bench"},
	})
}

// TestNarrowedLoadIsSilent: a package whose only caller is its test is
// not reported when the load is not the whole module.
func TestNarrowedLoadIsSilent(t *testing.T) {
	analysistest.RunLoad(t, "testdata", deadexport.New(fixtureConfig), analysistest.Load{
		Pkgs:     []string{"internal/n"},
		Narrowed: true,
	})
}

// TestDriverLoadDecidesWholeness drives the real loader over a throwaway
// module with a nested referrer module: `./...` at the root is a whole
// load (the referrer's test file counts), a narrowed pattern is not.
func TestDriverLoadDecidesWholeness(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go tool")
	}
	root := t.TempDir()
	files := map[string]string{
		"go.mod":               "module m\n\ngo 1.22\n",
		"internal/a/a.go":      "package a\n\nfunc Live() {}\n\nfunc Dead() {}\n\nfunc BenchOnly() {}\n",
		"internal/a/a_test.go": "package a\n\nimport \"testing\"\n\nfunc TestDead(t *testing.T) { Dead() }\n",
		"cmd/x/main.go":        "package main\n\nimport \"m/internal/a\"\n\nfunc main() { a.Live() }\n",
		"bench/go.mod":         "module m/bench\n\ngo 1.22\n\nrequire m v0.0.0\n\nreplace m => ../\n",
		"bench/main.go":        "package main\n\nfunc main() {}\n",
		"bench/main_test.go":   "package main\n\nimport (\n\t\"testing\"\n\n\t\"m/internal/a\"\n)\n\nfunc TestBench(t *testing.T) { a.BenchOnly() }\n",
	}
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	run := func(pattern string) []string {
		t.Helper()
		pkgs, err := driver.Load(root, []string{pattern})
		if err != nil {
			t.Fatal(err)
		}
		a := deadexport.New(deadexport.Config{Targets: []string{"m/internal"}})
		diags, err := driver.Run(pkgs, []*framework.Analyzer{a}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var msgs []string
		for _, d := range diags {
			msgs = append(msgs, d.Message)
		}
		return msgs
	}
	if got := run("./..."); len(got) != 1 || !strings.Contains(got[0], "a.Dead ") {
		t.Errorf("whole load: got %q, want one finding, on a.Dead", got)
	}
	if got := run("./internal/a"); len(got) != 0 {
		t.Errorf("narrowed load: got %q, want none", got)
	}
}
