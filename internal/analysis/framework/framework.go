// Package framework is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis core: an Analyzer is a named check that
// runs over one type-checked package (a Pass) and reports Diagnostics.
//
// The build environment for this repository is fully offline, so the real
// x/tools module cannot be fetched; this package provides the same shape of
// API (Analyzer, Pass, Reportf) so the vialint analyzers read like standard
// go/analysis code and could be ported to the real framework by swapping
// imports. Package loading lives in internal/analysis/driver; fixture-based
// testing in internal/analysis/analysistest.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //vialint:ignore directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Targets restricts the analyzer to packages whose import path equals
	// one of these entries or lives under one of them (prefix + "/").
	// Empty means every package.
	Targets []string
	// UsesFacts marks analyzers that export or import cross-package facts.
	// The driver runs fact-using analyzers over dependency packages too
	// (with reporting suppressed), so summaries flow to dependents.
	UsesFacts bool
	// NeedsBuild marks analyzers that require Pass.Unit (compiler-assisted
	// checks like noalloc). The driver and test harness populate Unit; an
	// embedding that cannot must skip these analyzers.
	NeedsBuild bool
	// Run performs the check over one package.
	Run func(*Pass) error
	// Finish, when set, is the analyzer's whole-program step: the driver
	// calls it once, after Run has seen the last package, with a Pass that
	// carries only the FileSet, the fact store and Reportf. It runs only
	// when the load is the whole module (its referrers included), since a
	// check on who references a declaration is unsound on any part of it.
	// Run still visits every package, referrers too; Finish reports.
	Finish func(*Pass) error
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Unit carries the build-level view of the package (source dir, file
	// list, export data of dependencies) for analyzers with NeedsBuild.
	// Nil when the embedding cannot supply it.
	Unit *BuildUnit

	facts  *Facts
	report func(Diagnostic)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// NewPass assembles a Pass whose findings are delivered to report.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, report func(Diagnostic)) *Pass {
	return &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info, report: report}
}

// SetUnit attaches build-level package info (for NeedsBuild analyzers).
func (p *Pass) SetUnit(u *BuildUnit) { p.Unit = u }

// SetFacts attaches a fact store shared across the run's passes.
func (p *Pass) SetFacts(f *Facts) { p.facts = f }

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// AppliesTo reports whether an analyzer with the given target list should
// run over a package path.
func AppliesTo(targets []string, pkgPath string) bool {
	if len(targets) == 0 {
		return true
	}
	for _, t := range targets {
		if pkgPath == t || strings.HasPrefix(pkgPath, t+"/") {
			return true
		}
	}
	return false
}

// PkgFunc resolves a selector expression like time.Now to the package-level
// function it names, returning the package path and function name, or
// ok=false when sel is not a direct reference to a package-level function.
func PkgFunc(info *types.Info, sel *ast.SelectorExpr) (pkgPath, name string, ok bool) {
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	fn, isFunc := info.Uses[sel.Sel].(*types.Func)
	if !isFunc {
		return "", "", false
	}
	return pn.Imported().Path(), fn.Name(), true
}

// WalkStack traverses every node of every file depth-first, calling fn with
// the node and the stack of its ancestors (outermost first, not including
// the node itself). Analyzers use it when a node's meaning depends on its
// parent — e.g. context.Background() directly inside context.WithTimeout.
func WalkStack(files []*ast.File, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			fn(n, stack)
			stack = append(stack, n)
			return true
		})
	}
}

// HasDirective reports whether a comment group contains the given
// machine-readable directive (e.g. "//via:noalloc") as a whole comment
// line. Directives follow the //go: convention: no space after the
// slashes, so they are distinguishable from prose.
func HasDirective(cg *ast.CommentGroup, directive string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if strings.TrimSpace(c.Text) == directive {
			return true
		}
	}
	return false
}

// IsErrorType reports whether t is (or trivially implements) the built-in
// error interface.
func IsErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return types.Implements(t, errType) || types.Identical(t, errType)
}
