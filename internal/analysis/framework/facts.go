package framework

import (
	"encoding/json"
	"fmt"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// Facts is the cross-package summary store: analyzers export facts about
// named program elements (functions, metric names) while analyzing one
// package, and import them when analyzing packages processed later. The
// driver processes packages in dependency order, so a dependent always
// sees its dependencies' facts — the mechanism that turns the per-package
// analyzers into whole-module checks (dettaint's call-graph taint,
// metricshygiene's registered-exactly-once rule).
//
// Facts are stored in marshaled (JSON) form, keyed by (analyzer, key), so
// a fact can never leak unserializable or mutable state between packages.
type Facts struct {
	mu sync.Mutex
	m  map[string]map[string]json.RawMessage // analyzer → key → fact; guarded by mu
}

// NewFacts builds an empty store.
func NewFacts() *Facts {
	return &Facts{m: make(map[string]map[string]json.RawMessage)}
}

// set stores a marshaled fact.
func (f *Facts) set(analyzer, key string, raw json.RawMessage) {
	f.mu.Lock()
	defer f.mu.Unlock()
	am := f.m[analyzer]
	if am == nil {
		am = make(map[string]json.RawMessage)
		f.m[analyzer] = am
	}
	am[key] = raw
}

// get fetches a marshaled fact.
func (f *Facts) get(analyzer, key string) (json.RawMessage, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	raw, ok := f.m[analyzer][key]
	return raw, ok
}

// keys returns every key the analyzer has facts for, sorted.
func (f *Facts) keys(analyzer string) []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.m[analyzer]))
	for k := range f.m[analyzer] {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ExportFact records a fact for key under this pass's analyzer. v must be
// JSON-marshalable; failures panic (a fact type that cannot marshal is a
// programming error, not an input condition).
func (p *Pass) ExportFact(key string, v any) {
	if p.facts == nil {
		return
	}
	raw, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("framework: marshal %s fact for %q: %v", p.Analyzer.Name, key, err))
	}
	p.facts.set(p.Analyzer.Name, key, raw)
}

// ImportFact decodes the fact stored for key into out (a pointer),
// reporting whether one existed.
func (p *Pass) ImportFact(key string, out any) bool {
	if p.facts == nil {
		return false
	}
	raw, ok := p.facts.get(p.Analyzer.Name, key)
	if !ok {
		return false
	}
	if err := json.Unmarshal(raw, out); err != nil {
		panic(fmt.Sprintf("framework: unmarshal %s fact for %q: %v", p.Analyzer.Name, key, err))
	}
	return true
}

// FactKeys lists every key this pass's analyzer has facts for — packages
// processed earlier plus this package's own exports so far.
func (p *Pass) FactKeys() []string {
	if p.facts == nil {
		return nil
	}
	return p.facts.keys(p.Analyzer.Name)
}

// BuildUnit is the build-level view of one package: where its sources
// live and where its dependencies' gc export data is. NeedsBuild
// analyzers use it to drive the compiler directly (escape analysis).
type BuildUnit struct {
	ImportPath string
	Dir        string
	// GoFiles are the absolute paths of the unit's non-test sources.
	GoFiles []string
	// Exports maps import path → gc package file for the dependency
	// closure (the importcfg vocabulary).
	Exports map[string]string
}

// FuncKey returns a stable cross-package identity for a function or
// method: "pkgpath.Name" for package-level functions,
// "pkgpath.(RecvType).Name" for methods. Identical source yields the same
// key whether the function was type-checked from source or summarized
// behind export data, which is what lets facts keyed by it cross package
// boundaries.
func FuncKey(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return fn.Name() // builtins like error.Error
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return pkg.Path() + "." + fn.Name()
	}
	recv := sig.Recv().Type()
	ptr := ""
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
		ptr = "*"
	}
	name := "?"
	if n, ok := recv.(*types.Named); ok {
		name = n.Obj().Name()
	}
	return pkg.Path() + ".(" + ptr + name + ")." + fn.Name()
}

// FuncDisplay renders a FuncKey for humans: the package path is shortened
// to its last element ("repro/internal/testbed.(*Deployment).Start" →
// "testbed.(*Deployment).Start").
func FuncDisplay(key string) string {
	dot := strings.Index(key, ".(")
	if dot < 0 {
		dot = strings.LastIndex(key, ".")
	}
	if dot < 0 {
		return key
	}
	pkg := key[:dot]
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		pkg = pkg[i+1:]
	}
	return pkg + key[dot:]
}
