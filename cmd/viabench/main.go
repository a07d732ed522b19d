// Command viabench regenerates the paper's tables and figures from the
// synthetic substrate.
//
// Usage:
//
//	viabench [flags] all            run every trace-driven experiment
//	viabench [flags] <name>...      run specific experiments (see -list)
//	viabench [flags] fig18          run the loopback deployment (§5.5)
//	viabench [flags] chaos          run the fault-injection benchmark
//	viabench [flags] bench          benchmark-regression harness (BENCH_<seed>.json)
//	viabench [flags] choose         uncached Choose-throughput harness (BENCH_2.json)
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
//	-benchout F      bench: output path (default BENCH_<seed>.json)
//	-baseline F      bench: compare against a committed baseline, exit 1 on regression
//	-tolerance T     bench: allowed fractional regression (default 0.25)
//	-modes M         bench: comma-separated passes, seq and/or par (default "seq,par")
//	-gomaxprocs N    bench/choose: override GOMAXPROCS for the measured run
//	-benchnote S     bench/choose: host caveat recorded verbatim in the JSON
//	-choose-ops N    choose: measured Choose calls (default 2000000)
//	-choose-pairs N  choose: distinct AS pairs (default 4096)
//	-choose-goroutines N  choose: concurrent callers (default 4)
//	-choose-zipf S   choose: pair-popularity skew (default 1.1)
//	-choose-observe-every N  choose: one Observe per N Chooses (default 200)
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
// When GITHUB_STEP_SUMMARY is set (GitHub Actions), bench appends a
// one-line result to the job summary.
//
// Independent experiments under `all` run concurrently against the shared
// environment (its run cache has singleflight semantics), while output is
// streamed in registry order. fig18 and chaos pace themselves on real
// sockets and timers, so they always run sequentially at the end.
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

	"repro/internal/benchharness"
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
	benchOut := flag.String("benchout", "", "bench: output JSON path (default BENCH_<seed>.json)")
	baseline := flag.String("baseline", "", "bench: baseline JSON to compare against")
	tolerance := flag.Float64("tolerance", 0.25, "bench: allowed fractional regression")
	modes := flag.String("modes", "seq,par", "bench: comma-separated seq,par")
	metricsOut := flag.String("metricsout", "", "fig18/chaos: write final metrics snapshot JSON to file")
	gomaxprocs := flag.Int("gomaxprocs", 0, "bench/choose: override GOMAXPROCS for the measured run (0 = leave as-is)")
	benchNote := flag.String("benchnote", "", "bench/choose: host caveat recorded verbatim in the report JSON")
	chooseOps := flag.Int("choose-ops", 2_000_000, "choose: total measured Choose calls")
	choosePairs := flag.Int("choose-pairs", 4096, "choose: distinct AS pairs in the workload")
	chooseGoroutines := flag.Int("choose-goroutines", 4, "choose: concurrent callers")
	chooseZipf := flag.Float64("choose-zipf", 1.1, "choose: zipf skew of pair popularity")
	chooseObserve := flag.Int("choose-observe-every", 200, "choose: one Observe per N Chooses per caller (0 = none)")
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
		fmt.Printf("%-8s %s\n", "bench", "benchmark-regression harness (writes BENCH_<seed>.json)")
		fmt.Printf("%-8s %s\n", "choose", "in-process Via Choose throughput + tail latency, uncached (writes BENCH_2.json)")
		fmt.Printf("%-8s %s\n", "soak", "shard-chaos soak (ring fleet under kill/promote/rebalance)")
		return 0
	}
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: viabench [flags] all | bench | choose | soak | fig18 | <experiment>... (use -list)")
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

	if len(args) == 1 && args[0] == "bench" {
		if *gomaxprocs > 0 {
			prev := runtime.GOMAXPROCS(*gomaxprocs)
			defer runtime.GOMAXPROCS(prev)
		}
		return runBench(*seed, *calls, *modes, *benchOut, *baseline, *tolerance, *benchNote)
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
	if len(args) == 1 && args[0] == "choose" {
		cfg := benchharness.DefaultChooseConfig()
		cfg.Seed = *seed
		cfg.Ops = *chooseOps
		cfg.Pairs = *choosePairs
		cfg.Goroutines = *chooseGoroutines
		cfg.ZipfS = *chooseZipf
		cfg.ObserveEvery = *chooseObserve
		cfg.GOMAXPROCS = *gomaxprocs
		cfg.Note = *benchNote
		return runChoose(cfg, *benchOut, *baseline, *tolerance)
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

// runChoose drives the Choose-throughput mode against an optional
// committed baseline (BENCH_2.json).
func runChoose(cfg benchharness.ChooseConfig, out, baseline string, tolerance float64) int {
	cfg.Logf = func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	}
	rep, err := benchharness.RunChoose(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "choose: %v\n", err)
		return 1
	}
	if out == "" {
		out = "BENCH_2.json"
	}
	if err := benchharness.WriteChooseJSON(rep, out); err != nil {
		fmt.Fprintf(os.Stderr, "choose: %v\n", err)
		return 1
	}
	fmt.Printf("[choose report written to %s]\n", out)
	appendStepSummary(chooseSummaryLine(rep))
	if baseline == "" {
		return 0
	}
	base, err := benchharness.ReadChooseJSON(baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "choose: %v\n", err)
		return 1
	}
	regressions, err := benchharness.ChooseCompare(rep, base, tolerance)
	if err != nil {
		fmt.Fprintf(os.Stderr, "choose: %v\n", err)
		return 1
	}
	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "choose: %d regression(s) vs %s:\n", len(regressions), baseline)
		for _, r := range regressions {
			fmt.Fprintf(os.Stderr, "  %s\n", r)
		}
		return 1
	}
	fmt.Printf("[choose: no regressions vs %s at tolerance %.0f%%]\n", baseline, 100*tolerance)
	return 0
}

// chooseSummaryLine renders the one-line markdown result for the CI job
// summary: ops/s and tail latency per variant.
func chooseSummaryLine(rep *benchharness.ChooseReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "**choose** pairs=%d goroutines=%d GOMAXPROCS=%d:", rep.Pairs, rep.Goroutines, rep.GOMAXPROCS)
	for _, v := range rep.Variants {
		fmt.Fprintf(&sb, " %s=%.2fM ops/s (p50=%s p99=%s p99.9=%s)", v.Variant, v.OpsPerSec/1e6,
			time.Duration(v.P50Ns), time.Duration(v.P99Ns), time.Duration(v.P999Ns))
	}
	return sb.String()
}

// runBench drives the benchmark-regression harness.
func runBench(seed uint64, calls int, modes, out, baseline string, tolerance float64, note string) int {
	var modeList []string
	for _, m := range strings.Split(modes, ",") {
		if m = strings.TrimSpace(m); m != "" {
			modeList = append(modeList, m)
		}
	}
	rep, err := benchharness.Run(benchharness.Config{
		Seed:  seed,
		Calls: calls,
		Modes: modeList,
		Note:  note,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if out == "" {
		out = benchharness.DefaultPath(seed)
	}
	if err := benchharness.WriteJSON(rep, out); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("[bench report written to %s]\n", out)
	if rep.SpeedupParOverSeq > 0 {
		fmt.Printf("[bench speedup par/seq: %.2fx at GOMAXPROCS=%d]\n", rep.SpeedupParOverSeq, rep.GOMAXPROCS)
	}
	appendStepSummary(benchSummaryLine(rep))
	if baseline == "" {
		return 0
	}
	base, err := benchharness.ReadJSON(baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	regressions, err := benchharness.Compare(rep, base, tolerance)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d regression(s) vs %s:\n", len(regressions), baseline)
		for _, r := range regressions {
			fmt.Fprintf(os.Stderr, "  %s\n", r)
		}
		return 1
	}
	fmt.Printf("[bench: no regressions vs %s at tolerance %.0f%%]\n", baseline, 100*tolerance)
	return 0
}

// benchSummaryLine renders the one-line markdown result for the CI job
// summary: per-mode wall times plus the parallel speedup when both ran.
func benchSummaryLine(rep *benchharness.Report) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "**bench** seed=%d calls=%d GOMAXPROCS=%d:", rep.Seed, rep.Calls, rep.GOMAXPROCS)
	for _, m := range rep.Modes {
		fmt.Fprintf(&sb, " %s=%s", m.Mode, time.Duration(m.WallNs).Round(time.Millisecond))
	}
	if rep.SpeedupParOverSeq > 0 {
		fmt.Fprintf(&sb, " (par/seq %.2fx)", rep.SpeedupParOverSeq)
	}
	return sb.String()
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
