// Command viabench regenerates the paper's tables and figures from the
// synthetic substrate.
//
// Usage:
//
//	viabench [flags] all            run every trace-driven experiment
//	viabench [flags] <name>...      run specific experiments (see -list)
//	viabench [flags] fig18          run the loopback deployment (§5.5)
//	viabench [flags] chaos          run the fault-injection benchmark
//	viabench [flags] soak           shard-chaos soak (ring fleet under faults)
//	viabench -list                  list experiment names
//
// Flags:
//
//	-seed N          master seed (default 1)
//	-calls N         trace size in calls (default 200000)
//	-csv             also emit CSV after each table
//	-quick           shrink fig18/chaos to smoke-test scale
//	-jobs N          concurrent experiments (0 = GOMAXPROCS)
//	-cpuprofile F    write a CPU profile to F
//	-memprofile F    write an allocation profile to F on exit
//	-metricsout F    fig18/chaos: write the final metrics snapshot as JSON to F
//	-waldir D        chaos: run the controller durably (WAL + snapshots in D;
//	                 the fault plan gains an abrupt crash + WAL-recovery restart)
//	-repair S        chaos: place every call with loss-repair scheme S
//	                 (none | nack | red | fec-K) and add burst loss to the plan
//	-soak-shards N   soak: initial ring shard count (default 3)
//	-soak-calls N    soak: minimum decisions across workers (default 2400)
//	-soak-pairs N    soak: zipf universe of group pairs (default 64)
//	-soak-goroutines N  soak: concurrent workers (default 4)
//	-soak-relays N   soak: bounce candidates per call beyond direct (default 5)
//	-soakout F       soak: write the machine-readable report JSON to F
//
// When GITHUB_STEP_SUMMARY is set (GitHub Actions), soak appends its
// one-line result to the job summary.
//
// Independent experiments under `all` run concurrently against the shared
// environment (its run cache has singleflight semantics), while output is
// streamed in registry order. fig18 and chaos pace themselves on real
// sockets and timers, so they always run sequentially at the end.
//
// viabench prints results; it does not meter itself. Per-experiment time
// and allocations are `go test -bench Experiments ./internal/experiments`,
// and the decision hot path is `go test -bench ViaChoose ./internal/core`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/stats"
)

func main() {
	os.Exit(run())
}

func run() int {
	seed := flag.Uint64("seed", 1, "master seed")
	calls := flag.Int("calls", 200000, "trace size in calls")
	csv := flag.Bool("csv", false, "also emit CSV")
	quick := flag.Bool("quick", false, "shrink fig18/chaos to smoke scale")
	list := flag.Bool("list", false, "list experiments")
	jobs := flag.Int("jobs", 0, "concurrent experiments (0 = GOMAXPROCS)")
	cpuprofile := flag.String("cpuprofile", "", "write CPU profile to file")
	memprofile := flag.String("memprofile", "", "write allocation profile to file on exit")
	metricsOut := flag.String("metricsout", "", "fig18/chaos: write final metrics snapshot JSON to file")
	walDir := flag.String("waldir", "", "chaos: run the controller durably (WAL+snapshots here; adds crash/WAL-restart faults)")
	repair := flag.String("repair", "", "chaos: loss-repair scheme on every call (none|nack|red|fec-K; adds burst loss to the fault plan)")
	soakShards := flag.Int("soak-shards", 3, "soak: initial ring shard count")
	soakCalls := flag.Int("soak-calls", 2400, "soak: minimum decisions across workers")
	soakPairs := flag.Int("soak-pairs", 64, "soak: zipf universe of group pairs")
	soakGoroutines := flag.Int("soak-goroutines", 4, "soak: concurrent workers, one ring client each")
	soakRelays := flag.Int("soak-relays", 5, "soak: bounce candidates per call beyond direct")
	soakOut := flag.String("soakout", "", "soak: write the machine-readable soak report JSON to file")
	flag.Parse()

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-8s %s\n", e.Name, e.Desc)
		}
		fmt.Printf("%-8s %s\n", "fig18", "real-networking deployment (§5.5)")
		fmt.Printf("%-8s %s\n", "chaos", "fault-injection benchmark (relay death + controller flap)")
		fmt.Printf("%-8s %s\n", "soak", "shard-chaos soak (ring fleet under kill/promote/rebalance)")
		return 0
	}
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: viabench [flags] all | soak | fig18 | chaos | <experiment>... (use -list)")
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close() //vialint:ignore errwrap best-effort close of profile file on exit
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer writeMemProfile(*memprofile)
	}

	if len(args) == 1 && args[0] == "soak" {
		return runSoakCmd(soakParams{
			seed:       *seed,
			shards:     *soakShards,
			calls:      *soakCalls,
			pairs:      *soakPairs,
			goroutines: *soakGoroutines,
			relays:     *soakRelays,
			walRoot:    *walDir,
			soakOut:    *soakOut,
			metricsOut: *metricsOut,
		})
	}
	names := args
	if len(args) == 1 && args[0] == "all" {
		names = nil
		for _, e := range experiments.Registry() {
			names = append(names, e.Name)
		}
		names = append(names, "fig18", "chaos")
	}

	// Split the env-driven experiments (safe to run concurrently) from the
	// real-time testbed modes, preserving the requested order within each.
	var envNames, liveNames []string
	for _, name := range names {
		if name == "fig18" || name == "chaos" {
			liveNames = append(liveNames, name)
		} else {
			envNames = append(envNames, name)
		}
	}

	if len(envNames) > 0 {
		for _, name := range envNames {
			if _, err := experiments.Lookup(name); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
		}
		fmt.Printf("[building environment: seed=%d calls=%d]\n", *seed, *calls)
		env := experiments.NewEnv(*seed, *calls)
		if err := runConcurrent(env, envNames, *jobs, *csv); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}

	// One registry spans every live mode in the invocation, so the dumped
	// snapshot reflects the whole run.
	var liveReg *obs.Registry
	if *metricsOut != "" && len(liveNames) > 0 {
		liveReg = obs.NewRegistry()
	}
	for _, name := range liveNames {
		start := time.Now()
		var tables []*stats.Table
		var err error
		switch name {
		case "fig18":
			cfg := experiments.DefaultFig18Config()
			if *quick {
				cfg = experiments.QuickFig18Config()
			}
			cfg.Seed = *seed + 10
			cfg.Metrics = liveReg
			tables, err = experiments.Fig18(cfg)
		case "chaos":
			cfg := experiments.DefaultChaosConfig()
			if *quick {
				cfg = experiments.QuickChaosConfig()
			}
			cfg.Seed = *seed + 16
			cfg.Metrics = liveReg
			cfg.WALDir = *walDir
			cfg.Repair = *repair
			tables, err = experiments.Chaos(cfg)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			return 1
		}
		emit(tables, *csv)
		fmt.Printf("[%s done in %s]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	if liveReg != nil {
		if err := writeMetricsSnapshot(liveReg, *metricsOut); err != nil {
			fmt.Fprintf(os.Stderr, "metricsout: %v\n", err)
			return 1
		}
		fmt.Printf("[metrics snapshot written to %s]\n", *metricsOut)
	}
	return 0
}

// writeMetricsSnapshot dumps a registry's final state as JSON.
func writeMetricsSnapshot(reg *obs.Registry, path string) error {
	buf, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// runConcurrent fans the named experiments across a bounded pool and
// streams their rendered tables to stdout in the requested order.
func runConcurrent(env *experiments.Env, names []string, jobs int, csv bool) error {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	type result struct {
		text string
		dur  time.Duration
		err  error
	}
	ready := make([]chan result, len(names))
	for i := range ready {
		ready[i] = make(chan result, 1)
	}
	sem := make(chan struct{}, jobs)
	for i, name := range names {
		go func(i int, name string) {
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			exp, err := experiments.Lookup(name)
			if err != nil {
				ready[i] <- result{err: err}
				return
			}
			var sb strings.Builder
			for _, t := range exp.Run(env) {
				sb.WriteString(t.String())
				sb.WriteByte('\n')
				if csv {
					sb.WriteString(t.CSV())
					sb.WriteByte('\n')
				}
			}
			ready[i] <- result{text: sb.String(), dur: time.Since(start)}
		}(i, name)
	}
	var firstErr error
	for i, name := range names {
		r := <-ready[i]
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		fmt.Print(r.text)
		fmt.Printf("[%s done in %s]\n\n", name, r.dur.Round(time.Millisecond))
	}
	return firstErr
}

// appendStepSummary appends one markdown line to the GitHub Actions job
// summary when running under CI; a no-op elsewhere.
func appendStepSummary(line string) {
	path := os.Getenv("GITHUB_STEP_SUMMARY")
	if path == "" {
		return
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		fmt.Fprintf(os.Stderr, "step summary: %v\n", err)
		return
	}
	defer f.Close() //vialint:ignore errwrap best-effort append to the CI job summary
	if _, err := fmt.Fprintln(f, line); err != nil {
		fmt.Fprintf(os.Stderr, "step summary: %v\n", err)
	}
}

func emit(tables []*stats.Table, csv bool) {
	for _, t := range tables {
		fmt.Println(t.String())
		if csv {
			fmt.Println(t.CSV())
		}
	}
}

func writeMemProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
		return
	}
	defer f.Close() //vialint:ignore errwrap best-effort close of profile file on exit
	runtime.GC()    // materialize up-to-date allocation stats
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
	}
}
