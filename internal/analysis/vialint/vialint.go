// Package vialint assembles the production analyzer suite. cmd/vialint
// (standalone multichecker and `go vet -vettool` shim) and any future CI
// embedding import this one registry so the set of enforced invariants has
// a single definition.
package vialint

import (
	"os/exec"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/analysis/ctxtimeout"
	"repro/internal/analysis/deadexport"
	"repro/internal/analysis/deadstore"
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/dettaint"
	"repro/internal/analysis/errwrap"
	"repro/internal/analysis/framework"
	"repro/internal/analysis/lockcheck"
	"repro/internal/analysis/metricshygiene"
	"repro/internal/analysis/noalloc"
	"repro/internal/analysis/walcompat"
)

// All returns the full production suite, in stable (alphabetical) order.
func All() []*framework.Analyzer {
	return []*framework.Analyzer{
		ctxtimeout.Analyzer,
		deadexport.New(deadexport.Config{
			Targets: []string{"repro/internal"},
			Exempt:  []string{"repro/internal/transport/codectest", "repro/internal/analysis/analysistest"},
		}),
		deadstore.Analyzer,
		determinism.Analyzer,
		dettaint.New(dettaintConfig()),
		errwrap.Analyzer,
		lockcheck.Analyzer,
		metricshygiene.Analyzer,
		noalloc.Analyzer,
		walcompat.New(walcompat.Config{SchemaDir: SchemaDir()}),
	}
}

// WALSchemaUpdater returns the walcompat instance that rewrites the golden
// schemas instead of verifying them (the `vialint -update-wal-schema`
// flow).
func WALSchemaUpdater() *framework.Analyzer {
	return walcompat.New(walcompat.Config{SchemaDir: SchemaDir(), Update: true})
}

// dettaintConfig wires the interprocedural taint roots: every function in
// the packages the determinism analyzer polices, plus the WAL replay
// surface — decode and replay must be deterministic so a standby
// reconstructs the exact leader state, while the write/fsync side
// legitimately samples the clock for its latency histogram.
func dettaintConfig() dettaint.Config {
	roots := make(map[string][]string, len(determinism.DefaultTargets)+1)
	for _, p := range determinism.DefaultTargets {
		roots[p] = nil // every function
	}
	roots["repro/internal/wal"] = []string{
		"ReadFrameBuf", "(*Log).Replay", "(*Log).Tail", "(*Tailer).Next",
		"ListSnapshots", "ReadSnapshot", "LatestSnapshot",
	}
	return dettaint.Config{
		Roots:              roots,
		DeterminismCovered: determinism.DefaultTargets,
	}
}

var (
	schemaOnce sync.Once
	schemaPath string
)

// SchemaDir locates the committed WAL golden-schema directory relative to
// the module root (resolved through `go env GOMOD`, so the suite works
// from any working directory inside the module). Empty when outside a
// module; walcompat then reports annotated structs as missing schemas,
// which is the honest answer.
func SchemaDir() string {
	schemaOnce.Do(func() {
		out, err := exec.Command("go", "env", "GOMOD").Output()
		gomod := strings.TrimSpace(string(out))
		if err != nil || gomod == "" || gomod == "/dev/null" || gomod == "NUL" {
			return
		}
		schemaPath = filepath.Join(filepath.Dir(gomod), "internal", "analysis", "walcompat", "schema")
	})
	return schemaPath
}

// Select returns the analyzers whose names appear in names; unknown names
// are reported so typos in -only flags fail loudly.
func Select(names []string) ([]*framework.Analyzer, []string) {
	byName := make(map[string]*framework.Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var picked []*framework.Analyzer
	var unknown []string
	for _, n := range names {
		if a, ok := byName[n]; ok {
			picked = append(picked, a)
		} else {
			unknown = append(unknown, n)
		}
	}
	return picked, unknown
}
