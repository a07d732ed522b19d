// Package analysistest runs a vialint analyzer over fixture packages and
// compares its diagnostics against `// want` expectations, mirroring the
// golang.org/x/tools/go/analysis/analysistest contract:
//
//	rand.Int() // want `ambient source`
//
// means line must produce exactly one diagnostic matching the backquoted
// (or double-quoted) regular expression; multiple expectations on one line
// must all match, in order of the diagnostics' positions; any diagnostic on
// a line without a matching expectation is an error, as is an expectation
// with no diagnostic.
//
// Fixture layout follows the x/tools convention: Run(t, dir, a, "a")
// analyzes the package in <dir>/src/a. Fixtures may import the standard
// library — resolved through export data from `go list -export`, fully
// offline — and each other: Run(t, dir, a, "a", "b") type-checks the
// fixtures in argument order within one shared FileSet and fact store, so
// an `import "a"` inside fixture b resolves to the already-checked fixture
// a and facts exported while analyzing a are visible while analyzing b.
// List dependencies before their importers. Each fixture also carries a
// framework.BuildUnit (sources plus stdlib export data), so NeedsBuild
// analyzers work in fixtures too. Fixtures run through driver.Run,
// so //vialint:ignore directives are honored exactly as in production runs
// and suppression behavior is testable.
//
// As in production loads, a fixture's _test.go files are not analyzed.
// RunLoad describes the rest of a production load for whole-program
// analyzers (those with a Finish step): referrer fixtures, loaded with
// their test files and never reported on, and narrowed loads, on which
// Finish stays silent.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis/driver"
	"repro/internal/analysis/framework"
)

// wantRe matches one expectation inside a want comment: a regexp in
// backquotes or double quotes.
var wantRe = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

// Run analyzes the named fixture packages under dir/src, in order, and
// reports mismatches through t. Fixtures listed earlier are importable by
// fixtures listed later, and share one fact store across the run. The
// fixtures form a whole module: an analyzer's Finish step runs after them.
func Run(t *testing.T, dir string, a *framework.Analyzer, pkgs ...string) {
	t.Helper()
	RunLoad(t, dir, a, Load{Pkgs: pkgs})
}

// Load is a fixture load shaped like a production one.
type Load struct {
	// Pkgs are the module's fixture packages, dependencies first.
	Pkgs []string
	// Referrers are fixture packages of a second module that imports the
	// first (bench/): loaded after Pkgs with their _test.go files, never
	// reported on.
	Referrers []string
	// Narrowed marks a load that is not the whole module, as `vialint
	// ./internal/x` is: Finish steps do not run.
	Narrowed bool
}

// RunLoad is Run over a Load.
func RunLoad(t *testing.T, dir string, a *framework.Analyzer, l Load) {
	t.Helper()
	s := &session{
		fset:     token.NewFileSet(),
		fixtures: make(map[string]*types.Package),
	}
	var pkgs []*driver.Package
	for _, pkg := range l.Pkgs {
		p := s.load(t, filepath.Join(dir, "src", pkg), pkg, false)
		if !framework.AppliesTo(a.Targets, pkg) && !a.UsesFacts {
			t.Fatalf("analyzer %s does not target fixture package %q; construct a test instance with New([]string{%q})", a.Name, pkg, pkg)
		}
		pkgs = append(pkgs, p)
	}
	for _, pkg := range l.Referrers {
		p := s.load(t, filepath.Join(dir, "src", pkg), pkg, true)
		p.Referrer = true
		pkgs = append(pkgs, p)
	}
	for _, p := range pkgs {
		p.WholeModule = !l.Narrowed
	}
	diags, err := driver.Run(pkgs, []*framework.Analyzer{a}, nil)
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	var files []*ast.File
	for _, p := range pkgs {
		files = append(files, p.Files...)
	}
	check(t, s.fset, files, diags)
}

// session is the state shared across one Run's fixture packages.
type session struct {
	fset     *token.FileSet
	fixtures map[string]*types.Package // fixture import path → checked package
}

// chainImporter resolves fixture import paths to already-checked fixture
// packages and everything else through gc export data.
type chainImporter struct {
	fixtures map[string]*types.Package
	std      types.Importer
}

func (c chainImporter) Import(path string) (*types.Package, error) {
	if p, ok := c.fixtures[path]; ok {
		return p, nil
	}
	return c.std.Import(path)
}

// load parses and type-checks one fixture package; tests says whether its
// _test.go files belong to it.
func (s *session) load(t *testing.T, dir, pkgPath string, tests bool) *driver.Package {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var files []*ast.File
	var goFiles []string
	imports := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || !tests && strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		full := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(s.fset, full, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing fixture: %v", err)
		}
		files = append(files, f)
		goFiles = append(goFiles, full)
		for _, imp := range f.Imports {
			imports[strings.Trim(imp.Path.Value, `"`)] = true
		}
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}

	var stdPaths []string
	for p := range imports {
		if _, isFixture := s.fixtures[p]; !isFixture {
			stdPaths = append(stdPaths, p)
		}
	}
	sort.Strings(stdPaths)
	exports, err := driver.StdExports(stdPaths)
	if err != nil {
		t.Fatalf("resolving fixture imports: %v", err)
	}
	info := driver.NewInfo()
	imp := chainImporter{fixtures: s.fixtures, std: driver.ExportImporter(s.fset, exports)}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkgPath, s.fset, files, info)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", pkgPath, err)
	}
	s.fixtures[pkgPath] = tpkg
	return &driver.Package{
		Path: pkgPath, Fset: s.fset, Files: files, Pkg: tpkg, Info: info,
		Unit: &framework.BuildUnit{ImportPath: pkgPath, Dir: dir, GoFiles: goFiles, Exports: exports},
	}
}

// expectation is one want regexp at a file line.
type expectation struct {
	re  *regexp.Regexp
	raw string
}

// check compares diagnostics against want comments.
func check(t *testing.T, fset *token.FileSet, files []*ast.File, diags []framework.Diagnostic) {
	t.Helper()
	wants := map[string][]expectation{} // "file:line" → expectations
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, m := range wantRe.FindAllStringSubmatch(text[len("want "):], -1) {
					raw := m[1]
					if raw == "" {
						raw = m[2]
					}
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", key, raw, err)
						continue
					}
					wants[key] = append(wants[key], expectation{re: re, raw: raw})
				}
			}
		}
	}

	got := map[string][]framework.Diagnostic{}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		got[key] = append(got[key], d)
	}

	for key, exps := range wants {
		ds := got[key]
		if len(ds) != len(exps) {
			t.Errorf("%s: want %d diagnostic(s), got %d: %s", key, len(exps), len(ds), messages(ds))
			continue
		}
		for i, exp := range exps {
			if !exp.re.MatchString(ds[i].Message) {
				t.Errorf("%s: diagnostic %q does not match want %q", key, ds[i].Message, exp.raw)
			}
		}
	}
	for key, ds := range got {
		if _, expected := wants[key]; !expected {
			t.Errorf("%s: unexpected diagnostic(s): %s", key, messages(ds))
		}
	}
}

func messages(ds []framework.Diagnostic) string {
	if len(ds) == 0 {
		return "(none)"
	}
	var parts []string
	for _, d := range ds {
		parts = append(parts, fmt.Sprintf("[%s] %s", d.Analyzer, d.Message))
	}
	return strings.Join(parts, "; ")
}
