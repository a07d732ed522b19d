// Command vialint is the multichecker for the repository's invariant
// analyzers (determinism, dettaint, lockcheck, errwrap, ctxtimeout,
// deadstore, deadexport, metricshygiene, noalloc, walcompat — see
// internal/analysis).
// It runs two ways:
//
// Standalone, over package patterns:
//
//	go run ./cmd/vialint ./...
//	go run ./cmd/vialint -only determinism,lockcheck ./internal/...
//	go run ./cmd/vialint -json ./...          # machine-readable findings
//	go run ./cmd/vialint -github ./...        # GitHub Actions annotations
//	go run ./cmd/vialint -timings ./...       # per-analyzer wall time
//	go run ./cmd/vialint -listcache .cache/vialint-list.json ./...
//	go run ./cmd/vialint -update-wal-schema ./...
//
// -listcache persists the `go list -export -deps` result keyed by a
// source stamp, skipping the list round-trip on warm runs (make lint uses
// it). -update-wal-schema regenerates the committed golden WAL schemas
// from source; review the diff. Narrowed patterns stay sound for the
// cross-package analyzers: module-local dependencies of the requested
// packages are loaded fact-only, so `vialint ./internal/rtp` sees the same
// facts a full run would.
//
// deadexport is the exception: whether an export has a non-test referrer
// is a question about the whole program, which a narrowed run does not
// load. It reports only when the requested packages are the whole module
// (`./...` at the module root); such a run also loads every module nested
// in the tree (bench/), test files included, as referrers. Narrowed runs
// leave it silent.
//
// As a `go vet` tool, speaking cmd/go's vet config protocol:
//
//	go build -o /tmp/vialint ./cmd/vialint
//	go vet -vettool=/tmp/vialint ./...
//
// In vet mode, cross-package facts ride in cmd/go's .vetx files: each
// package invocation merges its dependencies' fact files (PackageVetx)
// and serializes its own exports to VetxOutput, so interprocedural
// results match the standalone driver's dependency-ordered run. Vet mode
// sees one package at a time and never the whole program, so deadexport
// stays silent there.
//
// Exit status: 0 clean, 1 usage or load failure, 2 diagnostics found
// (matching x/tools' unitchecker convention so `go vet` integrates).
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis/driver"
	"repro/internal/analysis/framework"
	"repro/internal/analysis/vialint"
)

// modulePrefix identifies this module's packages in vet mode, where the
// driver's module detection (via go list) is unavailable.
const modulePrefix = "repro"

func main() {
	// cmd/go probes a vettool before use: `-V=full` asks for a version
	// fingerprint (cache key), `-flags` for the tool's supported flags.
	if len(os.Args) == 2 && strings.HasPrefix(os.Args[1], "-V") {
		// The output is cmd/go's cache key for vet results, so it must
		// change whenever the tool's behavior does: fingerprint the binary.
		fmt.Printf("vialint version %s\n", selfFingerprint())
		return
	}
	if len(os.Args) == 2 && os.Args[1] == "-flags" {
		fmt.Println("[]")
		return
	}
	for _, arg := range os.Args[1:] {
		if strings.HasSuffix(arg, ".cfg") {
			os.Exit(vetMode(arg))
		}
	}
	os.Exit(standalone())
}

// selfFingerprint hashes the running executable so rebuilt tools get fresh
// vet caches.
func selfFingerprint() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return "unknown"
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

func standalone() int {
	var (
		only      = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
		list      = flag.Bool("list", false, "list analyzers and exit")
		jsonOut   = flag.Bool("json", false, "emit findings as a JSON array on stdout")
		github    = flag.Bool("github", false, "emit GitHub Actions ::error annotations alongside findings")
		timings   = flag.Bool("timings", false, "report load and per-analyzer wall time on stderr")
		listcache = flag.String("listcache", "", "cache go-list units in this file, keyed by a source stamp")
		updateWAL = flag.Bool("update-wal-schema", false, "regenerate the committed golden WAL schemas from source and exit")
	)
	flag.Parse()
	analyzers := vialint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		var unknown []string
		analyzers, unknown = vialint.Select(strings.Split(*only, ","))
		if len(unknown) > 0 {
			fmt.Fprintf(os.Stderr, "vialint: unknown analyzers: %s\n", strings.Join(unknown, ", "))
			return 1
		}
	}
	if *updateWAL {
		analyzers = []*framework.Analyzer{vialint.WALSchemaUpdater()}
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	start := time.Now()
	var (
		pkgs    []*driver.Package
		cached  bool
		loadErr error
	)
	if *listcache != "" {
		pkgs, cached, loadErr = driver.LoadCached("", *listcache, patterns)
	} else {
		pkgs, loadErr = driver.Load("", patterns)
	}
	if loadErr != nil {
		fmt.Fprintln(os.Stderr, "vialint:", loadErr)
		return 1
	}
	loadTime := time.Since(start)

	perAnalyzer := map[string]float64{}
	diags, err := driver.RunWithFacts(pkgs, analyzers, framework.NewFacts(), perAnalyzer)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vialint:", err)
		return 1
	}
	if *timings {
		reportTimings(loadTime, *listcache != "", cached, time.Since(start), perAnalyzer)
	}
	if *updateWAL {
		fmt.Fprintf(os.Stderr, "vialint: golden WAL schemas rewritten under %s\n", vialint.SchemaDir())
		return 0
	}
	if len(diags) == 0 {
		if *jsonOut {
			fmt.Println("[]")
		}
		return 0
	}

	// One shared FileSet across packages: resolve positions from any pkg.
	fset := pkgs[0].Fset
	if *jsonOut {
		printJSON(fset, diags)
	} else {
		for _, d := range diags {
			pos := fset.Position(d.Pos)
			fmt.Printf("%s: %s (%s)\n", pos, d.Message, d.Analyzer)
			if *github {
				fmt.Printf("::error file=%s,line=%d,col=%d,title=vialint %s::%s\n",
					pos.Filename, pos.Line, pos.Column, d.Analyzer, githubEscape(d.Message))
			}
		}
	}
	fmt.Fprintf(os.Stderr, "vialint: %d finding(s)\n", len(diags))
	return 2
}

// jsonDiag is the -json output element.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func printJSON(fset *token.FileSet, diags []framework.Diagnostic) {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		out = append(out, jsonDiag{
			File: pos.Filename, Line: pos.Line, Col: pos.Column,
			Analyzer: d.Analyzer, Message: d.Message,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	//vialint:ignore errwrap stdout encode of already-validated structs cannot fail meaningfully
	_ = enc.Encode(out)
}

// githubEscape encodes the characters the workflow-command parser treats
// specially in message data.
func githubEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	return strings.ReplaceAll(s, "\n", "%0A")
}

// reportTimings summarizes where a lint run spent its time.
func reportTimings(load time.Duration, cacheEnabled, cacheHit bool, total time.Duration, perAnalyzer map[string]float64) {
	cacheNote := ""
	if cacheEnabled {
		if cacheHit {
			cacheNote = " (list cache hit)"
		} else {
			cacheNote = " (list cache miss)"
		}
	}
	fmt.Fprintf(os.Stderr, "vialint: load %.3fs%s, total %.3fs\n", load.Seconds(), cacheNote, total.Seconds())
	names := make([]string, 0, len(perAnalyzer))
	for name := range perAnalyzer {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return perAnalyzer[names[i]] > perAnalyzer[names[j]] })
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "vialint:   %-15s %.3fs\n", name, perAnalyzer[name])
	}
}

// vetConfig is the JSON cmd/go writes for each package when driving a
// vettool (the x/tools unitchecker.Config shape; unknown fields ignored).
type vetConfig struct {
	ID                        string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// inModule reports whether an import path belongs to this module; only
// module packages carry facts worth computing (sinks in the stdlib are
// recognized syntactically, not through summaries).
func inModule(importPath string) bool {
	return importPath == modulePrefix || strings.HasPrefix(importPath, modulePrefix+"/")
}

func vetMode(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vialint:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "vialint: parsing vet config:", err)
		return 1
	}
	// Non-module packages (stdlib) and test binaries export no facts and
	// get no diagnostics: write an empty fact file to satisfy cmd/go and
	// move on.
	if strings.HasSuffix(cfg.ID, ".test") || !inModule(cfg.ImportPath) {
		return writeFacts(cfg.VetxOutput, framework.NewFacts())
	}
	// Match standalone-mode policy: test files are not analyzed (they
	// legitimately use wall clocks and discard errors in teardown). When a
	// package has tests, cmd/go vets the test compilation ("p [p.test]")
	// instead of the base unit, so drop the _test.go files and analyze the
	// remaining production sources — a valid package on their own, since
	// in-package test files may reference base declarations but never the
	// reverse. External test units ("p_test") end up with no files; skip.
	prodFiles := cfg.GoFiles[:0]
	for _, f := range cfg.GoFiles {
		if !strings.HasSuffix(f, "_test.go") {
			prodFiles = append(prodFiles, f)
		}
	}
	cfg.GoFiles = prodFiles
	if len(cfg.GoFiles) == 0 {
		return writeFacts(cfg.VetxOutput, framework.NewFacts())
	}
	pkg, err := loadVetPackage(&cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, "vialint:", err)
		return 1
	}
	// A VetxOnly unit is a dependency of the requested patterns: analyze
	// it for facts alone, reporting nothing — the driver's FactsOnly flag
	// implements exactly that contract.
	pkg.FactsOnly = pkg.FactsOnly || cfg.VetxOnly

	// Seed this unit's fact store from its dependencies' fact files.
	facts := framework.NewFacts()
	for _, vetx := range cfg.PackageVetx {
		data, err := os.ReadFile(vetx)
		if err != nil || len(data) == 0 {
			continue // empty or pruned fact file: nothing to merge
		}
		if err := facts.MergeJSON(data); err != nil {
			fmt.Fprintln(os.Stderr, "vialint:", err)
			return 1
		}
	}

	diags, err := driver.RunWithFacts([]*driver.Package{pkg}, vialint.All(), facts, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vialint:", err)
		return 1
	}
	if code := writeFacts(cfg.VetxOutput, facts); code != 0 {
		return code
	}
	if len(diags) == 0 {
		return 0
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", pkg.Fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	return 2
}

// writeFacts serializes a fact store to cmd/go's .vetx slot.
func writeFacts(path string, facts *framework.Facts) int {
	if path == "" {
		return 0
	}
	data, err := facts.EncodeJSON()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vialint:", err)
		return 1
	}
	if err := os.WriteFile(path, data, 0o666); err != nil {
		fmt.Fprintln(os.Stderr, "vialint:", err)
		return 1
	}
	return 0
}

// loadVetPackage type-checks one package from a vet config, resolving
// imports through the export files cmd/go listed.
func loadVetPackage(cfg *vetConfig) (*driver.Package, error) {
	exports := make(map[string]string, len(cfg.PackageFile)+len(cfg.ImportMap))
	for path, file := range cfg.PackageFile {
		exports[path] = file
	}
	for src, canonical := range cfg.ImportMap {
		if file, ok := cfg.PackageFile[canonical]; ok {
			exports[src] = file
		}
	}
	// Test compilation units are named "p [p.test]"; the bracketed suffix
	// must not leak into type-checking or the compiler's -p flag.
	importPath, _, _ := strings.Cut(cfg.ImportPath, " ")
	return driver.LoadSingle(importPath, cfg.GoFiles, exports)
}
