package driver

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"repro/internal/analysis/dettaint"
	"repro/internal/analysis/framework"
)

func mustParse(t *testing.T, src string) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f
}

func TestIgnoreDirectives(t *testing.T) {
	fset, f := mustParse(t, `package p

func f() {
	x := 1 //vialint:ignore deadstore trailing justification
	_ = x
	//vialint:ignore errwrap,lockcheck standalone covers the next line
	y := 2
	_ = y
}
`)
	ig := CollectIgnores(fset, []*ast.File{f})
	if len(ig.Malformed) != 0 {
		t.Fatalf("unexpected malformed directives: %v", ig.Malformed)
	}
	at := func(line int, analyzer string) bool {
		pos := fset.File(f.Pos()).LineStart(line)
		return ig.Suppresses(fset, framework.Diagnostic{Pos: pos, Analyzer: analyzer})
	}
	if !at(4, "deadstore") || !at(5, "deadstore") {
		t.Error("trailing directive should cover its own line and the next")
	}
	if at(6, "deadstore") {
		t.Error("directive must not leak past the following line")
	}
	if !at(7, "errwrap") || !at(7, "lockcheck") {
		t.Error("comma-separated names should all be suppressed")
	}
	if at(7, "deadstore") {
		t.Error("unlisted analyzer must not be suppressed")
	}
}

func TestIgnoreAll(t *testing.T) {
	fset, f := mustParse(t, `package p

//vialint:ignore all generated stanza, audited separately
var x = 1
`)
	ig := CollectIgnores(fset, []*ast.File{f})
	pos := fset.File(f.Pos()).LineStart(4)
	for _, a := range []string{"deadstore", "errwrap", "anything"} {
		if !ig.Suppresses(fset, framework.Diagnostic{Pos: pos, Analyzer: a}) {
			t.Errorf("ignore all should suppress %s", a)
		}
	}
}

func TestMalformedIgnore(t *testing.T) {
	fset, f := mustParse(t, `package p

//vialint:ignore errwrap
func f() {}
`)
	ig := CollectIgnores(fset, []*ast.File{f})
	if len(ig.Malformed) != 1 {
		t.Fatalf("want 1 malformed-directive diagnostic, got %d", len(ig.Malformed))
	}
	if !strings.Contains(ig.Malformed[0].Message, "justification") {
		t.Errorf("malformed message should demand a justification: %q", ig.Malformed[0].Message)
	}
	pos := fset.File(f.Pos()).LineStart(4)
	if ig.Suppresses(fset, framework.Diagnostic{Pos: pos, Analyzer: "errwrap"}) {
		t.Error("malformed directive suppressed a diagnostic")
	}
}

// TestLoadRepoPackage exercises the full offline loading path (go list
// -export, gc importer, type-check) against a real module package.
func TestLoadRepoPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go tool")
	}
	pkgs, err := Load("../../..", []string{"./internal/quality"})
	if err != nil {
		t.Fatal(err)
	}
	// Module-local dependencies ride along as FactsOnly packages; the
	// requested package is the only reportable one and, being downstream of
	// its deps, comes last in the dependency order.
	var requested []*Package
	for _, p := range pkgs {
		if !p.FactsOnly {
			requested = append(requested, p)
		}
	}
	if len(requested) != 1 {
		t.Fatalf("want 1 reportable package, got %d", len(requested))
	}
	p := requested[0]
	if p.Path != "repro/internal/quality" {
		t.Errorf("path = %q", p.Path)
	}
	if pkgs[len(pkgs)-1] != p {
		t.Error("requested package should sort after its dependencies")
	}
	if len(p.Files) == 0 || p.Pkg == nil || len(p.Info.Defs) == 0 {
		t.Error("package loaded without syntax or type information")
	}
	if p.Unit == nil || len(p.Unit.GoFiles) == 0 || p.Unit.Exports["time"] == "" {
		t.Error("package loaded without a usable build unit")
	}
}

// mapImporter resolves a fixed set of in-memory packages, falling back to
// export data for everything else.
type mapImporter struct {
	pkgs     map[string]*types.Package
	fallback types.Importer
}

func (m mapImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	return m.fallback.Import(path)
}

// TestFactPropagationAcrossPackages drives the whole cross-package fact
// pipeline through the driver: a FactsOnly dependency exports its taint
// summary, the dependent package imports it and reports — and nothing is
// reported from the FactsOnly package itself.
func TestFactPropagationAcrossPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go tool")
	}
	fset := token.NewFileSet()
	parse := func(name, src string) *ast.File {
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	exports, err := StdExports([]string{"time"})
	if err != nil {
		t.Fatal(err)
	}
	std := ExportImporter(fset, exports)

	f1 := parse("p1.go", `package p1

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`)
	info1 := NewInfo()
	tp1, err := (&types.Config{Importer: std}).Check("p1", fset, []*ast.File{f1}, info1)
	if err != nil {
		t.Fatal(err)
	}

	f2 := parse("p2.go", `package p2

import "p1"

func Root() int64 { return p1.Stamp() }
`)
	info2 := NewInfo()
	imp := mapImporter{pkgs: map[string]*types.Package{"p1": tp1}, fallback: std}
	tp2, err := (&types.Config{Importer: imp}).Check("p2", fset, []*ast.File{f2}, info2)
	if err != nil {
		t.Fatal(err)
	}

	pkgs := []*Package{
		{Path: "p1", Fset: fset, Files: []*ast.File{f1}, Pkg: tp1, Info: info1, FactsOnly: true},
		{Path: "p2", Fset: fset, Files: []*ast.File{f2}, Pkg: tp2, Info: info2},
	}
	a := dettaint.New(dettaint.Config{Roots: map[string][]string{"p1": nil, "p2": nil}})
	timings := map[string]float64{}
	diags, err := Run(pkgs, []*framework.Analyzer{a}, timings)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 diagnostic (p1's suppressed, p2's reported), got %d: %v", len(diags), diags)
	}
	if pos := fset.Position(diags[0].Pos); pos.Filename != "p2.go" {
		t.Errorf("diagnostic landed in %s, want p2.go", pos.Filename)
	}
	if !strings.Contains(diags[0].Message, "via p1.Stamp") {
		t.Errorf("message should carry the cross-package chain: %q", diags[0].Message)
	}
	if timings["dettaint"] <= 0 {
		t.Error("timing sink not populated")
	}
}

// TestRunDetectsInjectedViolation is the issue's acceptance check in
// miniature: a deliberately inserted time.Now() must fail the run, and the
// same code under a justified suppression must pass.
func TestRunDetectsInjectedViolation(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go tool")
	}
	check := func(src string) []framework.Diagnostic {
		t.Helper()
		fset, f := mustParse(t, src)
		exports, err := StdExports([]string{"time"})
		if err != nil {
			t.Fatal(err)
		}
		info := NewInfo()
		conf := types.Config{Importer: ExportImporter(fset, exports)}
		tpkg, err := conf.Check("p", fset, []*ast.File{f}, info)
		if err != nil {
			t.Fatal(err)
		}
		pkg := &Package{Path: "p", Fset: fset, Files: []*ast.File{f}, Pkg: tpkg, Info: info}
		a := dettaint.New(dettaint.Config{Roots: map[string][]string{"p": nil}})
		diags, err := Run([]*Package{pkg}, []*framework.Analyzer{a}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return diags
	}

	violating := `package p

import "time"

func Bad() time.Time { return time.Now() }
`
	if diags := check(violating); len(diags) != 1 || !strings.Contains(diags[0].Message, "wall clock") {
		t.Fatalf("injected time.Now() not flagged: %v", diags)
	}

	suppressed := `package p

import "time"

func Audited() time.Time {
	//vialint:ignore dettaint test: justified wall-clock read
	return time.Now()
}
`
	if diags := check(suppressed); len(diags) != 0 {
		t.Fatalf("justified suppression not honored: %v", diags)
	}
}
