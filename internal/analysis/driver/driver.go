// Package driver loads type-checked packages for the vialint analyzers and
// runs them, applying //vialint:ignore suppression directives.
//
// Loading deliberately avoids golang.org/x/tools/go/packages (unavailable
// offline): it shells out to `go list -export -deps -json`, which compiles
// nothing beyond what the build cache already holds and yields gc export
// data for every dependency — stdlib and module-local alike. Source files
// of the matched packages are then parsed and type-checked against that
// export data via go/importer's gc importer. Test files are not analyzed
// (tests legitimately use wall-clock deadlines and loopback sockets).
//
// Packages are analyzed in dependency order (imports before importers)
// with a shared framework.Facts store, so fact-using analyzers (dettaint,
// metricshygiene) see their dependencies' summaries. Module-local packages
// that are only dependencies of the requested patterns are still loaded
// and run through the fact-using analyzers — with reporting suppressed —
// so a narrowed pattern (`vialint ./internal/rtp`, the lint-fast mode)
// keeps cross-package facts sound without reporting outside the request.
//
// A load whose requested packages are every package of the module (`./...`
// at the module root) is a whole-module load: the packages of each module
// one directory below the root (bench/) are then loaded too, test files included,
// as referrers — whole-program analyzers see their references, no analyzer
// reports on them — and analyzers with a Finish step run it after the last
// package. Narrowed loads never run Finish.
package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis/framework"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Unit is the build-level view for NeedsBuild analyzers.
	Unit *framework.BuildUnit
	// Imports lists the package's direct imports (for dependency-order
	// scheduling).
	Imports []string
	// FactsOnly marks a module-local dependency loaded only to seed the
	// fact store: fact-using analyzers run over it, diagnostics from it
	// are dropped.
	FactsOnly bool
	// Referrer marks a package of a nested module (tests included) loaded
	// on a whole-module load: only analyzers with a Finish step run over
	// it, and diagnostics from it are dropped.
	Referrer bool
	// WholeModule marks every package of a whole-module load; Run runs
	// Finish steps only when it is set.
	WholeModule bool
}

// listedPkg is the subset of `go list -json` output the driver consumes.
type listedPkg struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	GoFiles    []string
	Imports    []string
	ImportMap  map[string]string
	DepOnly    bool
	ForTest    string
	Module     *struct{ Path, Dir string }
	Error      *struct{ Err string }
}

// listing is everything one load lists: the requested packages and their
// dependencies, whether they are the whole module, and on a whole-module
// load the nested modules' packages (with their test variants).
type listing struct {
	Pkgs      []listedPkg
	Whole     bool
	Referrers [][]listedPkg // one `go list -test -deps` result per nested module
}

// goList runs `go list -export -deps -json` over patterns in dir and
// decodes the JSON stream; extra flags (-test) go before the patterns.
func goList(dir string, patterns []string, extra ...string) ([]listedPkg, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=Dir,ImportPath,Name,Export,GoFiles,Imports,ImportMap,DepOnly,ForTest,Module,Error",
	}, extra...)
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("driver: go list: %w\n%s", err, stderr.String())
	}
	return decodeList(out)
}

// decodeList parses a `go list -json` stream.
func decodeList(out []byte) ([]listedPkg, error) {
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("driver: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// ExportImporter returns a types.Importer that resolves import paths
// through the given map of import path → gc export data file.
func ExportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// StdExports resolves export-data files for the given import paths (and all
// their dependencies) by invoking go list. Used by the analysistest harness
// to type-check fixture packages that import only the standard library.
func StdExports(paths []string) (map[string]string, error) {
	if len(paths) == 0 {
		return map[string]string{}, nil
	}
	pkgs, err := goList("", paths)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}

// NewInfo returns a types.Info with every map analyzers rely on populated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// Load type-checks the packages matched by patterns (e.g. "./..."),
// resolved relative to dir ("" for the current directory), plus any
// module-local packages they depend on (marked FactsOnly). The result is
// in dependency order: a package appears after every package it imports.
// On a whole-module load the nested modules' packages follow, marked
// Referrer.
func Load(dir string, patterns []string) ([]*Package, error) {
	l, err := list(dir, patterns)
	if err != nil {
		return nil, err
	}
	return buildPackages(l)
}

// list runs the go list calls of one load.
func list(dir string, patterns []string) (listing, error) {
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return listing{}, err
	}
	l := listing{Pkgs: pkgs}
	mod := mainModule(pkgs)
	if mod == nil {
		return l, nil
	}
	// -find resolves no dependencies: listing the module costs ~0.1 s.
	cmd := exec.Command("go", "list", "-e", "-find", "-f", "{{.ImportPath}}", mod.Path+"/...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return listing{}, fmt.Errorf("driver: go list %s/...: %w", mod.Path, err)
	}
	requested := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		requested[p.ImportPath] = !p.DepOnly
	}
	l.Whole = true
	for _, path := range strings.Fields(string(out)) {
		l.Whole = l.Whole && requested[path]
	}
	if !l.Whole {
		return l, nil
	}
	// Nested modules sit one directory below the root (bench/).
	nested, _ := filepath.Glob(filepath.Join(mod.Dir, "*", "go.mod")) // the pattern is well-formed
	for _, gomod := range nested {
		nd := filepath.Dir(gomod)
		refs, err := goList(nd, []string{"./..."}, "-test")
		if err != nil {
			return listing{}, err
		}
		l.Referrers = append(l.Referrers, refs)
	}
	return l, nil
}

// mainModule is the module of the requested packages (nil when none is in
// a module).
func mainModule(pkgs []listedPkg) *struct{ Path, Dir string } {
	for _, p := range pkgs {
		if !p.DepOnly && p.Module != nil {
			return p.Module
		}
	}
	return nil
}

// buildPackages turns a listing into type-checked, dependency-ordered
// Packages, referrers last.
func buildPackages(l listing) ([]*Package, error) {
	listed := l.Pkgs
	exports := make(map[string]string, len(listed))
	byPath := make(map[string]listedPkg, len(listed))
	modulePath := ""
	for _, p := range listed {
		if p.Error != nil {
			return nil, fmt.Errorf("driver: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		byPath[p.ImportPath] = p
	}
	if mod := mainModule(listed); mod != nil {
		modulePath = mod.Path
	}

	// The analyzed set: requested packages, plus module-local deps for
	// fact seeding.
	analyze := make(map[string]bool)
	for _, p := range listed {
		if p.Name == "" {
			continue
		}
		if !p.DepOnly || (modulePath != "" && p.Module != nil && p.Module.Path == modulePath) {
			analyze[p.ImportPath] = true
		}
	}

	// Topological order over the analyzed set (imports first), with a
	// deterministic tie-break by import path.
	order := make([]string, 0, len(analyze))
	state := make(map[string]int, len(analyze)) // 0 unvisited, 1 visiting, 2 done
	var visit func(path string)
	visit = func(path string) {
		if !analyze[path] || state[path] != 0 {
			return
		}
		state[path] = 1
		imps := append([]string(nil), byPath[path].Imports...)
		sort.Strings(imps)
		for _, imp := range imps {
			visit(imp)
		}
		state[path] = 2
		order = append(order, path)
	}
	roots := make([]string, 0, len(analyze))
	for path := range analyze {
		roots = append(roots, path)
	}
	sort.Strings(roots)
	for _, path := range roots {
		visit(path)
	}

	fset := token.NewFileSet()
	imp := ExportImporter(fset, exports)
	var out []*Package
	for _, path := range order {
		p := byPath[path]
		pkg, err := check(fset, p, p.ImportPath, imp)
		if err != nil {
			return nil, err
		}
		pkg.Unit.Exports = exports
		pkg.FactsOnly, pkg.WholeModule = p.DepOnly, l.Whole
		out = append(out, pkg)
	}
	for _, refs := range l.Referrers {
		pkgs, err := buildReferrers(fset, refs)
		if err != nil {
			return nil, err
		}
		out = append(out, pkgs...)
	}
	return out, nil
}

// check parses and type-checks one listed package as path.
func check(fset *token.FileSet, p listedPkg, path string, imp types.Importer) (*Package, error) {
	files := make([]*ast.File, 0, len(p.GoFiles))
	goFiles := make([]string, 0, len(p.GoFiles))
	for _, name := range p.GoFiles {
		full := filepath.Join(p.Dir, name)
		f, err := parser.ParseFile(fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("driver: parsing %s: %w", name, err)
		}
		files = append(files, f)
		goFiles = append(goFiles, full)
	}
	info := NewInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("driver: type-checking %s: %w", p.ImportPath, err)
	}
	return &Package{
		Path: path, Fset: fset, Files: files, Pkg: tpkg, Info: info, Imports: p.Imports,
		Unit: &framework.BuildUnit{ImportPath: path, Dir: p.Dir, GoFiles: goFiles},
	}, nil
}

// buildReferrers type-checks a nested module's own packages from a
// `go list -test -deps` result: a package's test variant ("p [p.test]",
// its _test.go files included) stands in for the package, external test
// packages load as themselves, and generated test mains are skipped.
// Imports resolve through each package's ImportMap, so an external test
// sees the test variant of the package it tests.
func buildReferrers(fset *token.FileSet, listed []listedPkg) ([]*Package, error) {
	exports := make(map[string]string, len(listed))
	hasTestVariant := make(map[string]bool)
	for _, p := range listed {
		if p.Error != nil {
			return nil, fmt.Errorf("driver: %s: %s", p.ImportPath, p.Error.Err)
		}
		exports[p.ImportPath] = p.Export
		hasTestVariant[p.ForTest] = true
	}
	var out []*Package
	for _, p := range listed {
		path, _, _ := strings.Cut(p.ImportPath, " ")
		if p.DepOnly || strings.HasSuffix(path, ".test") || p.ForTest == "" && hasTestVariant[path] {
			continue
		}
		pkgExports := maps.Clone(exports)
		for src, id := range p.ImportMap {
			pkgExports[src] = exports[id]
		}
		pkg, err := check(fset, p, path, ExportImporter(fset, pkgExports))
		if err != nil {
			return nil, err
		}
		pkg.Referrer, pkg.WholeModule = true, true
		out = append(out, pkg)
	}
	return out, nil
}

// Run applies every analyzer to every package it targets and returns the
// surviving diagnostics, sorted by position, with //vialint:ignore
// directives applied. Analyzer errors abort the run. All packages share
// one fact store; timings, when non-nil, accumulates each analyzer's wall
// time in seconds under its name.
//
// On a whole-module load (Package.WholeModule), each analyzer's Finish step
// runs once after the last package; its findings are subject to the
// ignore directives of every reported package.
func Run(pkgs []*Package, analyzers []*framework.Analyzer, timings map[string]float64) ([]framework.Diagnostic, error) {
	facts := framework.NewFacts()
	var (
		diags []framework.Diagnostic
		all   []*Ignores // of reported packages, for Finish findings
		whole bool
	)
	for _, pkg := range pkgs {
		whole = whole || pkg.WholeModule
		ignores := CollectIgnores(pkg.Fset, pkg.Files)
		report := func(d framework.Diagnostic) {
			if !ignores.Suppresses(pkg.Fset, d) {
				diags = append(diags, d)
			}
		}
		quiet := pkg.FactsOnly || pkg.Referrer
		if quiet {
			report = func(framework.Diagnostic) {}
		} else {
			all = append(all, ignores)
		}
		for _, a := range analyzers {
			if pkg.FactsOnly && !a.UsesFacts || pkg.Referrer && a.Finish == nil {
				continue
			}
			if !framework.AppliesTo(a.Targets, pkg.Path) && !a.UsesFacts {
				continue
			}
			if a.NeedsBuild && pkg.Unit == nil {
				continue
			}
			pass := framework.NewPass(a, pkg.Fset, pkg.Files, pkg.Pkg, pkg.Info, report)
			pass.SetUnit(pkg.Unit)
			pass.SetFacts(facts)
			if err := timed(a.Name, timings, func() error { return a.Run(pass) }); err != nil {
				return nil, fmt.Errorf("driver: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
		if !quiet {
			diags = append(diags, ignores.Malformed...)
		}
	}
	if whole {
		fset := pkgs[0].Fset
		report := func(d framework.Diagnostic) {
			for _, ig := range all {
				if ig.Suppresses(fset, d) {
					return
				}
			}
			diags = append(diags, d)
		}
		for _, a := range analyzers {
			if a.Finish == nil {
				continue
			}
			pass := framework.NewPass(a, fset, nil, nil, nil, report)
			pass.SetFacts(facts)
			if err := timed(a.Name, timings, func() error { return a.Finish(pass) }); err != nil {
				return nil, fmt.Errorf("driver: %s finish: %w", a.Name, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// timed runs one step of an analyzer, accumulating wall time under its
// name when a timing sink is attached.
func timed(name string, timings map[string]float64, step func() error) error {
	if timings == nil {
		return step()
	}
	start := time.Now()
	err := step()
	timings[name] += time.Since(start).Seconds()
	return err
}
