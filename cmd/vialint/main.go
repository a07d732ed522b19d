// Command vialint is the multichecker for the repository's invariant
// analyzers (dettaint, lockcheck, errwrap, ctxtimeout, deadstore,
// deadexport, metricshygiene, noalloc, walcompat — see internal/analysis),
// run over package patterns:
//
//	go run ./cmd/vialint ./...
//	go run ./cmd/vialint -only dettaint,lockcheck ./internal/...
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
// Exit status: 0 clean, 1 usage or load failure, 2 diagnostics found.
package main

import (
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

func main() {
	os.Exit(run())
}

func run() int {
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
	diags, err := driver.Run(pkgs, analyzers, perAnalyzer)
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
