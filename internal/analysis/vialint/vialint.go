// Package vialint assembles the production analyzer suite. cmd/vialint
// and any future CI embedding import this one registry so the set of
// enforced invariants has a single definition.
package vialint

import (
	"os/exec"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/analysis/ctxtimeout"
	"repro/internal/analysis/deadexport"
	"repro/internal/analysis/deadstore"
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

// deterministic lists the packages that must stay deterministic: the
// synthetic Internet model, the discrete-event simulator, the experiment
// harness, the selection algorithms, every statistical helper they draw
// from, the loss-repair engine (rtp) — whose NACK timers, playout
// deadlines, and repair simulator all run on caller-supplied nanos, never
// a sampled clock — and the metrics layer (obs), which instruments
// deterministic packages and therefore must never sample a clock itself;
// timestamps are passed in by callers. Wall-clock use stays legal in the
// live-network packages (controller, relay, client, wan, faults, testbed)
// where real time is the point.
var deterministic = []string{
	"repro/internal/netsim",
	"repro/internal/sim",
	"repro/internal/experiments",
	"repro/internal/core",
	"repro/internal/trace",
	"repro/internal/stats",
	"repro/internal/coords",
	"repro/internal/tomo",
	"repro/internal/quality",
	"repro/internal/geo",
	"repro/internal/history",
	"repro/internal/packets",
	"repro/internal/rtp",
	"repro/internal/obs",
	"repro/via",
}

// dettaintConfig wires the determinism roots: every function (and
// package-level var initializer) in the deterministic packages, plus the
// WAL replay surface — decode and replay must be deterministic so a
// standby reconstructs the exact leader state, while the write/fsync side
// legitimately samples the clock for its latency histogram.
func dettaintConfig() dettaint.Config {
	roots := make(map[string][]string, len(deterministic)+1)
	for _, p := range deterministic {
		roots[p] = nil // every function
	}
	roots["repro/internal/wal"] = []string{
		"ReadFrameBuf", "(*Log).Replay", "(*Log).Tail", "(*Tailer).Next",
		"ListSnapshots", "ReadSnapshot", "LatestSnapshot",
	}
	return dettaint.Config{Roots: roots}
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
