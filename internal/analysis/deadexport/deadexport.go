// Package deadexport reports exported code that only tests reach.
//
// Every exported top-level identifier and exported method declared in a
// target package (internal/...) must be referenced by non-test code: any
// loaded package of the module, or any package of a referrer module
// (bench/), whose tests the driver loads too. A method also counts when
// its type satisfies an interface whose method the program calls through
// (signatures are matched across packages), or an interface declared
// outside the loaded program, whose callers (the standard library's) are
// invisible. Struct fields are out of scope: encoders reach them by
// reflection.
//
// Run records each package's declarations and references as a fact;
// Finish, which the driver calls only on a whole-module load, joins them.
// Narrowed runs report nothing.
package deadexport

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis/framework"
)

// Config selects the packages whose exports are checked.
type Config struct {
	// Targets are the import paths (or prefixes) whose exports are checked.
	Targets []string
	// Exempt are target packages that exist for tests (shared test
	// helpers): never reported.
	Exempt []string
}

// New builds a deadexport instance.
func New(cfg Config) *framework.Analyzer {
	c := &checker{cfg: cfg}
	return &framework.Analyzer{
		Name:      "deadexport",
		Doc:       "exported identifiers under internal/ must be referenced by non-test code (whole-module runs only)",
		Targets:   cfg.Targets,
		UsesFacts: true,
		Run:       c.run,
		Finish:    finish,
	}
}

// pkgFact is what one package contributes to the join. Methods and
// interface methods are written as entries (see entry).
type pkgFact struct {
	Defs  []def               // exported declarations to check
	Uses  map[string]bool     // keys of target objects referenced
	Calls map[string][]string // interface methods called through: the method's entry, then the interface's
	Types []map[string]string // per named type: method entry → declaration key ("" outside targets)
	Impls map[string][]string // target method key → packages declaring an interface it satisfies
}

// def is one checked declaration; Pos is in the run's shared FileSet.
type def struct {
	Key, Name string
	Pos       token.Pos
}

type checker struct{ cfg Config }

func (c *checker) target(obj types.Object) bool {
	return obj.Pkg() != nil && framework.AppliesTo(c.cfg.Targets, obj.Pkg().Path())
}

func (c *checker) run(pass *framework.Pass) error {
	path := pass.Pkg.Path()
	f := pkgFact{Uses: map[string]bool{}, Calls: map[string][]string{}, Impls: map[string][]string{}}
	if framework.AppliesTo(c.cfg.Targets, path) && !(len(c.cfg.Exempt) > 0 && framework.AppliesTo(c.cfg.Exempt, path)) {
		f.Defs = defs(pass.Pkg)
	}
	c.references(pass, f.Uses, f.Calls)
	var ifaces map[string][]*types.TypeName // built on first need
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if named, ok := obj.Type().(*types.Named); ok && isTypeName(obj) && !types.IsInterface(named) && named.TypeParams().Len() == 0 {
			if ifaces == nil {
				ifaces = visibleInterfaces(pass.Pkg)
			}
			f.Types = append(f.Types, c.methodSet(named, ifaces, f.Impls))
		}
	}
	pass.ExportFact(path, f)
	return nil
}

// defs lists a package's exported top-level identifiers and the exported
// methods of its named types.
func defs(pkg *types.Package) []def {
	var out []def
	add := func(obj types.Object, name string) {
		out = append(out, def{Key: key(obj), Name: name, Pos: obj.Pos()})
	}
	for _, name := range pkg.Scope().Names() {
		obj := pkg.Scope().Lookup(name)
		if obj.Exported() {
			add(obj, pkg.Name()+"."+name)
		}
		if named, ok := obj.Type().(*types.Named); ok && isTypeName(obj) && !types.IsInterface(named) {
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					add(m, framework.FuncDisplay(key(m)))
				}
			}
		}
	}
	return out
}

func isTypeName(obj types.Object) bool {
	tn, ok := obj.(*types.TypeName)
	return ok && !tn.IsAlias()
}

// key is an object's cross-package identity: framework.FuncKey for
// functions and methods, "pkgpath.Name" for other top-level objects, ""
// for anything else (fields, locals).
func key(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		return framework.FuncKey(fn)
	}
	if obj.Pkg() == nil || obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// references records the target objects a package references and the
// interface methods it calls through. A declaration's references to
// itself — a type named in its own methods, a recursive call — do not
// count.
func (c *checker) references(pass *framework.Pass, uses map[string]bool, calls map[string][]string) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			self := declKeys(pass.TypesInfo, decl)
			ast.Inspect(decl, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || pass.TypesInfo.Uses[id] == nil {
					return true
				}
				obj := pass.TypesInfo.Uses[id]
				if fn, ok := obj.(*types.Func); ok {
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
						cl := append([]string{entry(fn)}, entries(recv.Type().Underlying().(*types.Interface))...)
						calls[strings.Join(cl, ";")] = cl
						return true
					}
				}
				if k := key(obj); k != "" && !self[k] && c.target(obj) {
					uses[k] = true
				}
				return true
			})
		}
	}
}

// declKeys are the keys a top-level declaration declares: a function or
// method (with a method's receiver type), or every name of a type, var or
// const declaration.
func declKeys(info *types.Info, decl ast.Decl) map[string]bool {
	self := map[string]bool{}
	var names []*ast.Ident
	switch d := decl.(type) {
	case *ast.FuncDecl:
		names = []*ast.Ident{d.Name}
		if d.Recv != nil {
			recv := info.Defs[d.Name].Type().(*types.Signature).Recv().Type()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if named, ok := recv.(*types.Named); ok {
				self[key(named.Obj())] = true
			}
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				names = append(names, s.Name)
			case *ast.ValueSpec:
				names = append(names, s.Names...)
			}
		}
	}
	for _, n := range names {
		if obj := info.Defs[n]; obj != nil {
			self[key(obj)] = true
		}
	}
	return self
}

// methodSet maps the entry of every method of *named to its declaration
// key ("" unless an exported target method), and records in impls which
// packages declare a visible interface each such method helps satisfy.
func (c *checker) methodSet(named *types.Named, ifaces map[string][]*types.TypeName, impls map[string][]string) map[string]string {
	ptr := types.NewPointer(named)
	mset := types.NewMethodSet(ptr)
	out := make(map[string]string, mset.Len())
	for i := 0; i < mset.Len(); i++ {
		m := mset.At(i).Obj().(*types.Func)
		if !m.Exported() || !c.target(m) {
			out[entry(m)] = ""
			continue
		}
		k := key(m)
		out[entry(m)] = k
		for _, tn := range ifaces[m.Id()] {
			if types.Implements(ptr, tn.Type().Underlying().(*types.Interface)) {
				pkg := "" // the universe: error
				if tn.Pkg() != nil {
					pkg = tn.Pkg().Path()
				}
				impls[k] = append(impls[k], pkg)
			}
		}
	}
	return out
}

// visibleInterfaces indexes the named interfaces of pkg, its transitive
// imports and the universe (error) by the Ids of their methods.
func visibleInterfaces(pkg *types.Package) map[string][]*types.TypeName {
	index := map[string][]*types.TypeName{}
	add := func(scope *types.Scope) {
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.IsMethodSet() {
				for i := 0; i < iface.NumMethods(); i++ {
					id := iface.Method(i).Id()
					index[id] = append(index[id], tn)
				}
			}
		}
	}
	add(types.Universe)
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if !seen[p] {
			seen[p] = true
			add(p.Scope())
			for _, imp := range p.Imports() {
				walk(imp)
			}
		}
	}
	walk(pkg)
	return index
}

// entries renders an interface's methods as sorted entries.
func entries(iface *types.Interface) []string {
	out := make([]string, iface.NumMethods())
	for i := range out {
		out[i] = entry(iface.Method(i))
	}
	sort.Strings(out)
	return out
}

// entry renders a method as its Id and signature, without receiver or
// parameter names, so a concrete method and the interface method it
// satisfies render alike.
func entry(m *types.Func) string {
	sig := m.Type().(*types.Signature)
	var b strings.Builder
	b.WriteString(m.Id())
	for _, t := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < t.Len(); i++ {
			b.WriteString(types.TypeString(t.At(i).Type(), nil) + ",")
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// finish joins every package's fact and reports the declarations nothing
// references.
func finish(pass *framework.Pass) error {
	var facts []pkgFact
	loaded := map[string]bool{}
	used := map[string]bool{}
	calls := map[string][]string{}
	for _, k := range pass.FactKeys() {
		var f pkgFact
		pass.ImportFact(k, &f)
		facts = append(facts, f)
		loaded[k] = true
		for u := range f.Uses {
			used[u] = true
		}
		for id, cl := range f.Calls {
			calls[id] = cl
		}
	}
	for _, f := range facts {
		for k, pkgs := range f.Impls {
			for _, pkg := range pkgs {
				used[k] = used[k] || !loaded[pkg]
			}
		}
		for _, ms := range f.Types {
		calls:
			for _, cl := range calls {
				if ms[cl[0]] == "" {
					continue
				}
				for _, e := range cl[1:] {
					if _, ok := ms[e]; !ok {
						continue calls
					}
				}
				used[ms[cl[0]]] = true
			}
		}
	}
	for _, f := range facts {
		for _, d := range f.Defs {
			if !used[d.Key] {
				pass.Reportf(d.Pos, "exported %s is referenced by no non-test code: delete it with its tests, unexport it, or justify it", d.Name)
			}
		}
	}
	return nil
}
