// Package dettaint forbids wall-clock and ambient-randomness escapes, and
// map-iteration-order-dependent output, in the functions that must stay
// deterministic.
//
// The Via reproduction's results (Algorithm 2 pruning, modified UCB1, §4.6
// budget curves) are only trustworthy if a run is bit-for-bit reproducible
// under a seed. Inside the model, time must flow from the virtual clock
// (trace hours threaded through core.Call.THours) and randomness from
// internal/stats.RNG labeled streams split off one master seed. A single
// time.Now() or global math/rand call silently breaks replayability, and
// so does one a call away — a sim package calling a helper in a live
// package that reads time.Now. dettaint builds a static call graph over
// the whole module and flags every determinism *root* (functions in the
// replay-critical packages: sim, rtp, the WAL replay surface, obs) that
// reaches one of three sinks, directly or transitively:
//
//   - wallclock: time.Now / time.Since / time.Until
//   - globalrand: math/rand{,/v2} package-level draws from the shared
//     ambient source (explicitly-seeded constructors stay legal)
//   - maporder: output that depends on map iteration order — a range over
//     a map that prints, or appends to an outer slice that is never
//     subsequently sorted
//
// Call-graph summaries travel between packages as facts (see
// framework.Facts): while analyzing a package the analyzer exports, for
// every function that reaches a sink, the sink kind plus the call chain
// that reaches it; packages analyzed later import those summaries for
// their cross-package callees. Only static calls are traced — interface
// dispatch is invisible to the taint, which keeps the analysis precise
// (no false aliasing) at the cost of trusting implementations of
// deterministic interfaces.
//
// A direct wall-clock or ambient-rand use in a root is reported at the
// offending expression, so a line-scoped //vialint:ignore silences exactly
// one use. A transitive finding (and a map-order one) is reported at the
// root function's declaration, with the full chain in the message, so one
// justified //vialint:ignore covers a function that is live by design (the
// chaos and fig18 experiment drivers). In a package whose every function
// is a root, the package-level var initializers are roots too, function
// literals inside them included.
package dettaint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"

	"repro/internal/analysis/framework"
)

// Sink kinds, in report order.
const (
	kindWallclock  = "wallclock"
	kindGlobalrand = "globalrand"
	kindMaporder   = "maporder"
)

// forbiddenTime are the time functions that read the wall clock: only
// sampling "now" is banned, duration arithmetic and time.Time values are
// fine. time.Since(t) is time.Now().Sub(t), time.Until(t) t.Sub(time.Now()).
var forbiddenTime = map[string]bool{"Now": true, "Since": true, "Until": true}

// allowedRand are the math/rand{,/v2} package-level constructors that build
// explicitly-seeded generators; everything else at package level draws from
// the shared ambient source.
var allowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": true,
}

// does says what a direct use of a sink kind does; fix says how to stay
// deterministic instead.
var (
	does = map[string]string{
		kindWallclock:  "reads the wall clock",
		kindGlobalrand: "draws from the shared ambient source",
	}
	fix = map[string]string{
		kindWallclock:  "thread the virtual clock (core.Call.THours / netsim window time) instead",
		kindGlobalrand: "use a labeled stream from internal/stats.RNG (Split/SplitN) so streams stay independent and replayable",
		kindMaporder:   "sort what the loop collects before it is output",
	}
)

// sink is one reachable nondeterminism source: its kind, a human
// description of the ultimate sink, and the call chain (function keys,
// nearest callee first) from the summarized function down to the function
// containing the sink. Empty chain means the sink is in the function
// itself.
type sink struct {
	Kind  string   `json:"kind"`
	Desc  string   `json:"desc"`
	Chain []string `json:"chain,omitempty"`
}

// funcFact is the exported per-function summary.
type funcFact struct {
	Sinks []sink `json:"sinks"`
}

// maxChain bounds recorded call chains; deeper taint still propagates,
// the rendered path is just truncated.
const maxChain = 8

// Config selects which functions are determinism roots.
type Config struct {
	// Roots maps package path → root function names within it. A nil or
	// empty name list marks every function in the package, and its
	// package-level var initializers, as roots. Method roots are named
	// "(*Recv).Name" / "(Recv).Name".
	Roots map[string][]string
}

// New builds the analyzer. It must run over every module package (facts
// from non-root packages feed the taint), so Targets stays empty and the
// Config decides where findings are reported.
func New(cfg Config) *framework.Analyzer {
	return &framework.Analyzer{
		Name:      "dettaint",
		Doc:       "flag determinism-critical functions that reach time.Now/Since/Until, ambient math/rand, or map-iteration-order-dependent output, directly or transitively; use the virtual clock and stats.RNG labeled streams",
		UsesFacts: true,
		Run:       func(pass *framework.Pass) error { return run(pass, cfg) },
	}
}

// fnInfo accumulates one function's (or one package-level var
// initializer's) direct sinks and static callees.
type fnInfo struct {
	key     string          // FuncKey; "" for an initializer, which no one calls
	name    string          // as reported: "(*T).M", "F", "var x"
	pos     token.Pos       // the declared name
	sinks   map[string]sink // kind → first sink found
	uses    []use           // every direct wallclock/globalrand reference
	callees []string        // FuncKeys, in source order, deduplicated
}

// use is one direct wall-clock or ambient-rand reference.
type use struct {
	pos  token.Pos
	kind string
	name string // "time.Now", "rand.Intn"
}

func run(pass *framework.Pass, cfg Config) error {
	rootNames, isRootPkg := cfg.Roots[pass.Pkg.Path()]
	var fns []*fnInfo
	byKey := make(map[string]*fnInfo)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				obj, ok := pass.TypesInfo.Defs[decl.Name].(*types.Func)
				if !ok || decl.Body == nil {
					continue
				}
				key := framework.FuncKey(obj)
				fi := &fnInfo{key: key, name: localName(key), pos: decl.Name.Pos(), sinks: make(map[string]sink)}
				collect(pass, decl.Body, fi)
				fns = append(fns, fi)
				byKey[fi.key] = fi
			case *ast.GenDecl:
				if decl.Tok != token.VAR || !isRootPkg || len(rootNames) > 0 {
					continue
				}
				for _, spec := range decl.Specs {
					vs := spec.(*ast.ValueSpec)
					if len(vs.Values) == 0 {
						continue
					}
					fi := &fnInfo{name: "var " + vs.Names[0].Name, pos: vs.Names[0].Pos(), sinks: make(map[string]sink)}
					collect(pass, vs, fi)
					fns = append(fns, fi)
				}
			}
		}
	}

	// Propagate callee sinks up the intra-package call graph to a fixed
	// point; cross-package callees resolve through imported facts, which
	// are final (dependencies are analyzed first).
	for changed := true; changed; {
		changed = false
		for _, fi := range fns {
			for _, calleeKey := range fi.callees {
				for _, s := range calleeSinks(pass, byKey, calleeKey) {
					if _, have := fi.sinks[s.Kind]; have {
						continue
					}
					chain := append([]string{calleeKey}, s.Chain...)
					if len(chain) > maxChain {
						chain = chain[:maxChain]
					}
					fi.sinks[s.Kind] = sink{Kind: s.Kind, Desc: s.Desc, Chain: chain}
					changed = true
				}
			}
		}
	}

	for _, fi := range fns {
		if len(fi.sinks) > 0 && fi.key != "" {
			pass.ExportFact(fi.key, funcFact{Sinks: sortedSinks(fi.sinks)})
		}
	}

	if isRootPkg {
		report(pass, rootNames, fns)
	}
	return nil
}

// calleeSinks resolves a callee's summary: same-package functions from the
// in-progress graph, everything else from imported facts.
func calleeSinks(pass *framework.Pass, byKey map[string]*fnInfo, key string) []sink {
	if fi, ok := byKey[key]; ok {
		return sortedSinks(fi.sinks)
	}
	var ff funcFact
	if pass.ImportFact(key, &ff) {
		return ff.Sinks
	}
	return nil
}

func sortedSinks(m map[string]sink) []sink {
	out := make([]sink, 0, len(m))
	for _, s := range m {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// collect walks one function body or var spec (nested literals included —
// their sinks and calls are attributed to the enclosing declaration) for
// direct sinks and static call edges.
func collect(pass *framework.Pass, scope ast.Node, fi *fnInfo) {
	seen := make(map[string]bool)
	ast.Inspect(scope, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			// Sinks trigger on any reference, not just calls: storing
			// time.Now into a clock field is as nondeterministic as
			// calling it.
			if pkgPath, name, ok := framework.PkgFunc(pass.TypesInfo, n); ok {
				switch pkgPath {
				case "time":
					if forbiddenTime[name] {
						fi.addUse(use{n.Pos(), kindWallclock, "time." + name}, "wall clock")
					}
				case "math/rand", "math/rand/v2":
					if !allowedRand[name] {
						fi.addUse(use{n.Pos(), kindGlobalrand, "rand." + name}, "ambient math/rand")
					}
				}
			}
		case *ast.CallExpr:
			if key, ok := staticCallee(pass.TypesInfo, n); ok && !seen[key] {
				seen[key] = true
				fi.callees = append(fi.callees, key)
			}
		case *ast.RangeStmt:
			checkMapRange(pass, scope, n, fi)
		}
		return true
	})
}

// addUse records a direct wallclock or globalrand reference; source says
// where the sink draws from, for the summary's description.
func (fi *fnInfo) addUse(u use, source string) {
	fi.uses = append(fi.uses, u)
	fi.addSink(u.kind, fmt.Sprintf("%s (%s)", u.name, source))
}

func (fi *fnInfo) addSink(kind, desc string) {
	if _, have := fi.sinks[kind]; !have {
		fi.sinks[kind] = sink{Kind: kind, Desc: desc}
	}
}

// staticCallee resolves a call expression to a statically-known function
// or concrete method. Interface dispatch and function values return
// ok=false.
func staticCallee(info *types.Info, call *ast.CallExpr) (string, bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return framework.FuncKey(fn), true
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return "", false
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				return "", false
			}
			return framework.FuncKey(fn), true
		}
		// Package-qualified function: pkg.Fn(...).
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			if _, isPkg := info.Uses[ident(fun.X)].(*types.PkgName); isPkg {
				return framework.FuncKey(fn), true
			}
		}
	}
	return "", false
}

func ident(e ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(e).(*ast.Ident)
	return id
}

// checkMapRange flags a range over a map whose body makes iteration order
// observable: printing inside the loop, or appending to a slice declared
// outside the loop that is never passed to a sort.* / slices.* call later
// in the enclosing declaration.
func checkMapRange(pass *framework.Pass, scope ast.Node, rs *ast.RangeStmt, fi *fnInfo) {
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}

	var appendTargets []types.Object
	printed := false
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if pkgPath, name, ok := framework.PkgFunc(pass.TypesInfo, sel); ok && pkgPath == "fmt" &&
					strings.HasPrefix(strings.TrimPrefix(name, "F"), "Print") {
					printed = true
				}
			}
		case *ast.AssignStmt:
			// x = append(x, ...) where x is declared outside the loop.
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || len(n.Lhs) <= i {
					continue
				}
				if id := ident(call.Fun); id == nil || id.Name != "append" {
					continue
				}
				lhs := ident(n.Lhs[i])
				if lhs == nil {
					continue
				}
				obj := pass.TypesInfo.Uses[lhs]
				if obj == nil {
					obj = pass.TypesInfo.Defs[lhs]
				}
				if obj != nil && obj.Pos() < rs.Pos() {
					appendTargets = append(appendTargets, obj)
				}
			}
		}
		return true
	})

	if printed {
		fi.addSink(kindMaporder, "map-iteration-order-dependent output (printing inside a map range)")
		return
	}
	for _, obj := range appendTargets {
		if !sortedAfter(pass, scope, rs, obj) {
			fi.addSink(kindMaporder, fmt.Sprintf("map-iteration-order-dependent output (appends to %s inside a map range with no later sort)", obj.Name()))
			return
		}
	}
}

// sortedAfter reports whether obj is passed to a sort.* or slices.* call
// after the range statement ends.
func sortedAfter(pass *framework.Pass, scope ast.Node, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(scope, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgPath, _, ok := framework.PkgFunc(pass.TypesInfo, sel)
		if !ok || (pkgPath != "sort" && pkgPath != "slices") {
			return true
		}
		for _, arg := range call.Args {
			if id := ident(arg); id != nil && pass.TypesInfo.Uses[id] == obj {
				found = true
			}
		}
		return true
	})
	return found
}

// report emits diagnostics for the root functions of a root package: each
// direct wallclock or globalrand use at its expression, every other
// finding at the declaration with the reaching chain in the message.
func report(pass *framework.Pass, rootNames []string, fns []*fnInfo) {
	for _, fi := range fns {
		if len(rootNames) > 0 && !slices.Contains(rootNames, fi.name) {
			continue
		}
		for _, u := range fi.uses {
			pass.Reportf(u.pos, "%s %s in %s, which is required to be deterministic; %s",
				u.name, does[u.kind], fi.name, fix[u.kind])
		}
		for _, s := range sortedSinks(fi.sinks) {
			if len(s.Chain) == 0 && s.Kind != kindMaporder {
				continue // reported at each use above
			}
			msg := fmt.Sprintf("%s is required to be deterministic but reaches %s", fi.name, s.Desc)
			if len(s.Chain) > 0 {
				parts := make([]string, 0, len(s.Chain))
				for _, key := range s.Chain {
					parts = append(parts, framework.FuncDisplay(key))
				}
				msg += " via " + strings.Join(parts, " → ")
			}
			pass.Reportf(fi.pos, "%s; %s", msg, fix[s.Kind])
		}
	}
}

// localName strips the package path off a FuncKey: "pkg/path.(*T).M" →
// "(*T).M", "pkg/path.F" → "F".
func localName(key string) string {
	if i := strings.Index(key, ".("); i >= 0 {
		return key[i+1:]
	}
	if i := strings.LastIndex(key, "."); i >= 0 {
		return key[i+1:]
	}
	return key
}
