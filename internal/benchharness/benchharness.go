// Package benchharness is the benchmark-regression harness behind
// `viabench bench` and `make bench-json`: it replays the registered
// experiments against a fresh environment, records per-experiment wall
// time and allocation counts plus whole-suite wall clock in sequential
// and parallel modes, captures peak RSS, and writes a BENCH_<seed>.json
// baseline. A committed baseline plus Compare turn the suite into a CI
// gate: allocations are compared directly (machine-independent), wall
// time is compared as each experiment's share of the suite total so a
// uniformly faster or slower runner never trips the check.
//
// This package intentionally lives outside the determinism-audited
// simulation packages: measuring wall-clock time is its whole point.
package benchharness

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
)

// Mode names accepted by Config.Modes.
const (
	ModeSequential = "seq"
	ModeParallel   = "par"
)

// Config parameterizes one harness invocation.
type Config struct {
	Seed  uint64
	Calls int
	// Modes lists the suite passes to run (ModeSequential and/or
	// ModeParallel). Each pass builds a fresh environment so strategy-run
	// caches are cold and the passes are comparable.
	Modes []string
	// Note is copied into the report verbatim (host caveats, e.g. the
	// 1-core CI container making the par/seq speedup ≈1 by construction).
	Note string
	// Logf receives progress lines; nil silences them.
	Logf func(format string, args ...any)
}

// ExpStat is one experiment's measured cost (sequential pass only: in the
// parallel pass experiments overlap, so only the suite wall time is
// meaningful there).
type ExpStat struct {
	Name        string `json:"name"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp uint64 `json:"allocs_per_op"`
	BytesPerOp  uint64 `json:"bytes_per_op"`
}

// ModeStat is one whole-suite pass.
type ModeStat struct {
	Mode        string    `json:"mode"`
	EnvBuildNs  int64     `json:"env_build_ns"`
	WallNs      int64     `json:"wall_ns"`
	Experiments []ExpStat `json:"experiments,omitempty"`
}

// Report is the persisted BENCH_<seed>.json schema.
type Report struct {
	Seed       uint64     `json:"seed"`
	Calls      int        `json:"calls"`
	GOOS       string     `json:"goos"`
	GOARCH     string     `json:"goarch"`
	GoVersion  string     `json:"go_version"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Note       string     `json:"note,omitempty"`
	CreatedUTC string     `json:"created_utc"`
	Modes      []ModeStat `json:"modes"`
	// SpeedupParOverSeq is sequential wall / parallel wall when both
	// passes ran; 0 otherwise.
	SpeedupParOverSeq float64 `json:"speedup_par_over_seq,omitempty"`
	PeakRSSBytes      uint64  `json:"peak_rss_bytes"`
}

// Run executes the configured passes and assembles a report.
func Run(cfg Config) (*Report, error) {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if len(cfg.Modes) == 0 {
		cfg.Modes = []string{ModeSequential, ModeParallel}
	}
	rep := &Report{
		Seed:       cfg.Seed,
		Calls:      cfg.Calls,
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Note:       cfg.Note,
		CreatedUTC: time.Now().UTC().Format(time.RFC3339),
	}
	var seqWall, parWall int64
	for _, mode := range cfg.Modes {
		switch mode {
		case ModeSequential:
			ms, err := runSequential(cfg, logf)
			if err != nil {
				return nil, err
			}
			seqWall = ms.WallNs
			rep.Modes = append(rep.Modes, *ms)
		case ModeParallel:
			ms, err := runParallel(cfg, logf)
			if err != nil {
				return nil, err
			}
			parWall = ms.WallNs
			rep.Modes = append(rep.Modes, *ms)
		default:
			return nil, fmt.Errorf("benchharness: unknown mode %q (want %q or %q)", mode, ModeSequential, ModeParallel)
		}
	}
	if seqWall > 0 && parWall > 0 {
		rep.SpeedupParOverSeq = float64(seqWall) / float64(parWall)
	}
	rep.PeakRSSBytes = peakRSSBytes()
	return rep, nil
}

// runSequential replays every registered experiment one at a time,
// recording per-experiment time and allocations.
func runSequential(cfg Config, logf func(string, ...any)) (*ModeStat, error) {
	logf("[bench %s: building environment seed=%d calls=%d]", ModeSequential, cfg.Seed, cfg.Calls)
	buildStart := time.Now()
	env := experiments.NewEnv(cfg.Seed, cfg.Calls)
	ms := &ModeStat{Mode: ModeSequential, EnvBuildNs: time.Since(buildStart).Nanoseconds()}

	var mem0, mem1 runtime.MemStats
	suiteStart := time.Now()
	for _, exp := range experiments.Registry() {
		runtime.ReadMemStats(&mem0)
		start := time.Now()
		exp.Run(env)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&mem1)
		ms.Experiments = append(ms.Experiments, ExpStat{
			Name:        exp.Name,
			NsPerOp:     elapsed.Nanoseconds(),
			AllocsPerOp: mem1.Mallocs - mem0.Mallocs,
			BytesPerOp:  mem1.TotalAlloc - mem0.TotalAlloc,
		})
		logf("[bench %s: %s in %s]", ModeSequential, exp.Name, elapsed.Round(time.Millisecond))
	}
	ms.WallNs = time.Since(suiteStart).Nanoseconds()
	return ms, nil
}

// runParallel replays the suite with the production concurrency:
// independent experiments overlap, their strategy replays deduplicated by
// the environment's singleflight cache. Only the suite wall time is
// recorded.
func runParallel(cfg Config, logf func(string, ...any)) (*ModeStat, error) {
	logf("[bench %s: building environment seed=%d calls=%d]", ModeParallel, cfg.Seed, cfg.Calls)
	buildStart := time.Now()
	env := experiments.NewEnv(cfg.Seed, cfg.Calls)
	ms := &ModeStat{Mode: ModeParallel, EnvBuildNs: time.Since(buildStart).Nanoseconds()}

	reg := experiments.Registry()
	sem := make(chan struct{}, 2*runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	suiteStart := time.Now()
	for _, exp := range reg {
		wg.Add(1)
		go func(exp experiments.Experiment) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			exp.Run(env)
			logf("[bench %s: %s in %s]", ModeParallel, exp.Name, time.Since(start).Round(time.Millisecond))
		}(exp)
	}
	wg.Wait()
	ms.WallNs = time.Since(suiteStart).Nanoseconds()
	return ms, nil
}

// DefaultPath returns the conventional baseline file name for a seed.
func DefaultPath(seed uint64) string {
	return fmt.Sprintf("BENCH_%d.json", seed)
}

// WriteJSON persists a report.
func WriteJSON(rep *Report, path string) error {
	return writeJSONFile(rep, path)
}

// ReadJSON loads a previously written report.
func ReadJSON(path string) (*Report, error) {
	var rep Report
	if err := readJSONFile(path, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// writeJSONFile persists any report shape as indented JSON.
func writeJSONFile(v any, path string) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("benchharness: encode report: %w", err)
	}
	b = append(b, '\n')
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("benchharness: write %s: %w", path, err)
	}
	return nil
}

// readJSONFile loads a JSON report into v.
func readJSONFile(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("benchharness: read baseline: %w", err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("benchharness: parse %s: %w", path, err)
	}
	return nil
}

// minShare is the fraction of total suite time below which an experiment
// is too small to time-compare meaningfully (sub-millisecond figures
// jitter far more than 25% run to run).
const minShare = 0.01

// Compare checks cur against base and returns one human-readable line per
// regression beyond tol (a fraction, e.g. 0.25 = +25%).
//
// Two checks run over the sequential pass:
//   - allocs/op compared directly: allocation counts are deterministic
//     for a fixed seed/calls, so any growth is a real code change;
//   - ns/op compared as the experiment's share of the suite total, which
//     cancels machine speed and only flags experiments that got slower
//     relative to their peers.
func Compare(cur, base *Report, tol float64) ([]string, error) {
	if cur.Seed != base.Seed || cur.Calls != base.Calls {
		return nil, fmt.Errorf("benchharness: baseline mismatch: baseline seed=%d calls=%d, current seed=%d calls=%d",
			base.Seed, base.Calls, cur.Seed, cur.Calls)
	}
	curSeq := findMode(cur, ModeSequential)
	baseSeq := findMode(base, ModeSequential)
	if curSeq == nil || baseSeq == nil {
		return nil, fmt.Errorf("benchharness: both reports need a %q pass to compare", ModeSequential)
	}
	baseBy := make(map[string]ExpStat, len(baseSeq.Experiments))
	baseTotal := int64(0)
	for _, e := range baseSeq.Experiments {
		baseBy[e.Name] = e
		baseTotal += e.NsPerOp
	}
	curTotal := int64(0)
	for _, e := range curSeq.Experiments {
		curTotal += e.NsPerOp
	}
	var regressions []string
	for _, e := range curSeq.Experiments {
		b, ok := baseBy[e.Name]
		if !ok {
			continue // new experiment: nothing to regress against
		}
		if b.AllocsPerOp > 0 && float64(e.AllocsPerOp) > float64(b.AllocsPerOp)*(1+tol) {
			regressions = append(regressions, fmt.Sprintf(
				"%s: allocs/op %d -> %d (+%.0f%%, tolerance %.0f%%)",
				e.Name, b.AllocsPerOp, e.AllocsPerOp,
				100*(float64(e.AllocsPerOp)/float64(b.AllocsPerOp)-1), 100*tol))
		}
		if baseTotal <= 0 || curTotal <= 0 {
			continue
		}
		baseShare := float64(b.NsPerOp) / float64(baseTotal)
		curShare := float64(e.NsPerOp) / float64(curTotal)
		if baseShare < minShare && curShare < minShare {
			continue
		}
		if curShare > baseShare*(1+tol) {
			regressions = append(regressions, fmt.Sprintf(
				"%s: ns/op share of suite %.1f%% -> %.1f%% (+%.0f%%, tolerance %.0f%%)",
				e.Name, 100*baseShare, 100*curShare, 100*(curShare/baseShare-1), 100*tol))
		}
	}
	return regressions, nil
}

func findMode(rep *Report, mode string) *ModeStat {
	for i := range rep.Modes {
		if rep.Modes[i].Mode == mode {
			return &rep.Modes[i]
		}
	}
	return nil
}

// peakRSSBytes reads the process's high-water resident set from
// /proc/self/status (linux); elsewhere it falls back to the Go runtime's
// view of memory obtained from the OS.
func peakRSSBytes() uint64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			f := strings.Fields(line)
			if len(f) >= 2 {
				if kb, err := strconv.ParseUint(f[1], 10, 64); err == nil {
					return kb * 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Sys
}
