package benchharness

// Choose-throughput mode: how many relay decisions per second can the
// decision engine answer, and at what tail latency? The experiment suite
// (benchharness.go) measures whole-figure replay cost; this file measures
// the production question behind ROADMAP's "~1M Choose/s per core": a
// call floor hammering Via's full history → tomography → top-k → UCB
// pipeline in-process on a zipf-skewed pair population, with a trickle of
// Observe reports moving the state it decides from.
//
// One variant runs, "uncached": every Choose walks the full Via decision
// pipeline, as the served controller does.
//
// The committed baseline (BENCH_2.json) gates regressions in CI. Raw
// ops/s is machine-dependent, so ChooseCompare checks only the
// machine-independent invariant: allocs/op (near zero in steady state,
// and deterministic for a fixed config).

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/quality"
	"repro/internal/stats"
)

// ChooseConfig parameterizes one Choose-throughput run.
type ChooseConfig struct {
	Seed uint64
	// Pairs is the number of distinct AS pairs in the workload.
	Pairs int
	// RelaysPerPair is the number of bounce candidates offered per pair
	// (plus one direct and one transit option).
	RelaysPerPair int
	// Goroutines is the number of concurrent callers.
	Goroutines int
	// Ops is the total number of measured Choose calls, split across
	// goroutines.
	Ops int
	// ZipfS is the pair-popularity skew (1.1 ≈ realistic call floor:
	// a few hot country/AS pairs carry most traffic).
	ZipfS float64
	// ObserveEvery issues one Observe per this many Chooses on each
	// goroutine (0 disables reports during the measured phase). Each
	// report feeds the pair's history and bandit, so the measured
	// decisions run against moving state.
	ObserveEvery int
	// Warmup is the number of unmeasured Choose+Observe rounds that train
	// the strategy (fills history, builds the predictor and the per-pair
	// top-k lists).
	Warmup int
	// GOMAXPROCS, when positive, overrides the runtime parallelism for
	// the run (restored after).
	GOMAXPROCS int
	// Note is copied into the report verbatim (host caveats).
	Note string
	// Logf receives progress lines; nil silences them.
	Logf func(format string, args ...any)
}

// DefaultChooseConfig is the committed-baseline operating point.
func DefaultChooseConfig() ChooseConfig {
	return ChooseConfig{
		Seed:          1,
		Pairs:         4096,
		RelaysPerPair: 8,
		Goroutines:    4,
		Ops:           2_000_000,
		ZipfS:         1.1,
		ObserveEvery:  200,
		Warmup:        200_000,
	}
}

// ChooseVariantStat is one variant's measured throughput and tail.
type ChooseVariantStat struct {
	Variant     string  `json:"variant"` // "uncached"
	OpsPerSec   float64 `json:"ops_per_sec"`
	WallNs      int64   `json:"wall_ns"`
	P50Ns       int64   `json:"p50_ns"`
	P99Ns       int64   `json:"p99_ns"`
	P999Ns      int64   `json:"p999_ns"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// ChooseReport is the persisted BENCH_2.json schema.
type ChooseReport struct {
	Seed         uint64              `json:"seed"`
	Pairs        int                 `json:"pairs"`
	Goroutines   int                 `json:"goroutines"`
	Ops          int                 `json:"ops"`
	ZipfS        float64             `json:"zipf_s"`
	ObserveEvery int                 `json:"observe_every"`
	GOOS         string              `json:"goos"`
	GOARCH       string              `json:"goarch"`
	GoVersion    string              `json:"go_version"`
	GOMAXPROCS   int                 `json:"gomaxprocs"`
	Note         string              `json:"note,omitempty"`
	CreatedUTC   string              `json:"created_utc"`
	Variants     []ChooseVariantStat `json:"variants"`
}

// chooseWorkload is the precomputed, read-only call population: pair
// endpoints, per-pair candidate sets, per-pair truth metrics, and a
// zipf-skewed pair index table the goroutines walk.
type chooseWorkload struct {
	srcs, dsts []netsim.ASID
	cands      [][]netsim.Option
	rtts       []float64
	pairIdx    []int32
	// calls holds the measured-phase call template for each (pair,
	// direction): calls[2p] is forward, calls[2p+1] reversed. The
	// measured loop copies one struct instead of assembling fields — the
	// workload generator's cost must stay well under the hot path it
	// meters.
	calls []core.Call
}

// buildChooseWorkload materializes the workload deterministically from the
// seed. The pair index table is a power-of-two ring so goroutine walks
// wrap with a mask instead of a modulo.
func buildChooseWorkload(cfg ChooseConfig) *chooseWorkload {
	w := &chooseWorkload{
		srcs:  make([]netsim.ASID, cfg.Pairs),
		dsts:  make([]netsim.ASID, cfg.Pairs),
		cands: make([][]netsim.Option, cfg.Pairs),
		rtts:  make([]float64, cfg.Pairs),
	}
	rng := stats.NewRNG(cfg.Seed).Split("bench-choose")
	for i := 0; i < cfg.Pairs; i++ {
		w.srcs[i] = netsim.ASID(2 * i)
		w.dsts[i] = netsim.ASID(2*i + 1)
		cands := make([]netsim.Option, 0, cfg.RelaysPerPair+2)
		cands = append(cands, netsim.DirectOption())
		base := netsim.RelayID(i % 512)
		for r := 0; r < cfg.RelaysPerPair; r++ {
			cands = append(cands, netsim.BounceOption(base+netsim.RelayID(r)))
		}
		cands = append(cands, netsim.TransitOption(base, base+1))
		w.cands[i] = cands
		w.rtts[i] = 80 + 240*rng.Float64()
	}
	const tableBits = 16
	w.pairIdx = make([]int32, 1<<tableBits)
	z := stats.NewZipf(rng.Split("zipf"), cfg.Pairs, cfg.ZipfS)
	for i := range w.pairIdx {
		w.pairIdx[i] = int32(z.Sample())
	}
	w.calls = make([]core.Call, 2*cfg.Pairs)
	for i := 0; i < cfg.Pairs; i++ {
		c := core.Call{Src: w.srcs[i], Dst: w.dsts[i], THours: warmHours + 0.1, DurationSec: 180}
		w.calls[2*i] = c
		// Alternate call direction: the canonical-pair flip is part of
		// the hot path and must be exercised.
		c.Src, c.Dst = c.Dst, c.Src
		w.calls[2*i+1] = c
	}
	return w
}

// metricsFor synthesizes a plausible report for a pair/option without
// consuming randomness (the measured loop must not contend on an RNG):
// relayed options shave a deterministic fraction off the pair's base RTT.
func (w *chooseWorkload) metricsFor(p int32, opt netsim.Option) quality.Metrics {
	rtt := w.rtts[p]
	if opt.IsRelayed() {
		rtt *= 0.7 + 0.01*float64(opt.R1%16)
	}
	return quality.Metrics{RTTMs: rtt, LossRate: 0.005, JitterMs: 8}
}

// warmHours is the virtual-time span of the warmup phase (two refresh
// epochs at the default 24h period, so the predictor has trained and the
// per-pair top-k caches are built before measurement starts).
const warmHours = 49.0

// warmup trains the strategy over the whole pair population so the
// measured phase exercises the steady-state hot path, not bootstrap.
func chooseWarmup(cfg ChooseConfig, w *chooseWorkload, strat core.Strategy) {
	n := cfg.Warmup
	if n <= 0 {
		return
	}
	mask := len(w.pairIdx) - 1
	for k := 0; k < n; k++ {
		p := w.pairIdx[k&mask]
		// Cover every pair at least a few times regardless of skew.
		if k < 4*cfg.Pairs {
			p = int32(k % cfg.Pairs)
		}
		c := core.Call{
			Src: w.srcs[p], Dst: w.dsts[p],
			THours:      warmHours * float64(k) / float64(n),
			DurationSec: 180,
		}
		opt := strat.Choose(c, w.cands[p])
		strat.Observe(c, opt, w.metricsFor(p, opt))
	}
}

// runChooseVariant hammers Choose from cfg.Goroutines callers and returns
// the variant's stats. Latency is sampled (not per-op) so the timer cost
// never dominates; ops/s comes from the wall clock over all ops.
func runChooseVariant(cfg ChooseConfig, w *chooseWorkload, strat core.Strategy, name string) ChooseVariantStat {
	mask := len(w.pairIdx) - 1
	perG := cfg.Ops / cfg.Goroutines
	// ~20k samples across the run: plenty for p50/p99/p99.9 (20 samples
	// above the p99.9 cut) while keeping the two clock reads per sample
	// off the common op, whose cost is what's being measured.
	sampleEvery := cfg.Ops / 20_000
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	samples := make([][]int64, cfg.Goroutines)
	for i := range samples {
		samples[i] = make([]int64, 0, perG/sampleEvery+1)
	}

	var mem0, mem1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem0)
	start := time.Now()
	done := make(chan struct{})
	for g := 0; g < cfg.Goroutines; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			off := g * (mask + 1) / cfg.Goroutines
			buf := samples[g]
			// Countdown counters, not modulos: a non-constant integer
			// division on every op would be a visible share of the
			// decision being measured. Goroutines start desynchronized so
			// samples and reports don't cluster on the same ops.
			sampleCt := 1 + g*sampleEvery/cfg.Goroutines
			obsCt := 0
			if cfg.ObserveEvery > 0 {
				obsCt = 1 + g*cfg.ObserveEvery/cfg.Goroutines
			}
			for k := 0; k < perG; k++ {
				p := w.pairIdx[(k+off)&mask]
				c := w.calls[int(p)<<1|(k&1)]
				var opt netsim.Option
				sampleCt--
				if sampleCt == 0 {
					sampleCt = sampleEvery
					t0 := time.Now()
					opt = strat.Choose(c, w.cands[p])
					buf = append(buf, time.Since(t0).Nanoseconds())
				} else {
					opt = strat.Choose(c, w.cands[p])
				}
				if obsCt > 0 {
					obsCt--
					if obsCt == 0 {
						obsCt = cfg.ObserveEvery
						strat.Observe(c, opt, w.metricsFor(p, opt))
					}
				}
			}
			samples[g] = buf
		}(g)
	}
	for g := 0; g < cfg.Goroutines; g++ {
		<-done
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&mem1)

	var all []int64
	for _, s := range samples {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	ops := perG * cfg.Goroutines
	st := ChooseVariantStat{
		Variant:     name,
		OpsPerSec:   float64(ops) / wall.Seconds(),
		WallNs:      wall.Nanoseconds(),
		P50Ns:       pctile(all, 0.50),
		P99Ns:       pctile(all, 0.99),
		P999Ns:      pctile(all, 0.999),
		AllocsPerOp: float64(mem1.Mallocs-mem0.Mallocs) / float64(ops),
	}
	return st
}

// pctile reads the q-quantile from sorted samples.
func pctile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// newChooseVia builds the strategy under test at the paper's operating
// point, minus the relaying-budget machinery (a call floor measures the
// decision engine, not §4.6 policy).
func newChooseVia(cfg ChooseConfig) *core.Via {
	vc := core.DefaultViaConfig(quality.RTT)
	vc.Seed = cfg.Seed + 100
	return core.NewVia(vc, nil)
}

// RunChoose executes the choose-throughput mode: warm up Via on the
// workload, then measure it.
func RunChoose(cfg ChooseConfig) (*ChooseReport, error) {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if cfg.Pairs <= 0 || cfg.Ops <= 0 || cfg.Goroutines <= 0 {
		return nil, fmt.Errorf("benchharness: choose config needs positive pairs/ops/goroutines")
	}
	if cfg.GOMAXPROCS > 0 {
		prev := runtime.GOMAXPROCS(cfg.GOMAXPROCS)
		defer runtime.GOMAXPROCS(prev)
	}
	w := buildChooseWorkload(cfg)
	rep := &ChooseReport{
		Seed:         cfg.Seed,
		Pairs:        cfg.Pairs,
		Goroutines:   cfg.Goroutines,
		Ops:          cfg.Ops,
		ZipfS:        cfg.ZipfS,
		ObserveEvery: cfg.ObserveEvery,
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Note:         cfg.Note,
		CreatedUTC:   time.Now().UTC().Format(time.RFC3339),
	}

	logf("[choose: warmup uncached (%d rounds, %d pairs)]", cfg.Warmup, cfg.Pairs)
	bare := newChooseVia(cfg)
	chooseWarmup(cfg, w, bare)
	logf("[choose: measuring uncached (%d ops, %d goroutines)]", cfg.Ops, cfg.Goroutines)
	un := runChooseVariant(cfg, w, bare, "uncached")
	rep.Variants = append(rep.Variants, un)
	logf("[choose: uncached %.0f ops/s p50=%dns p99=%dns]", un.OpsPerSec, un.P50Ns, un.P99Ns)
	return rep, nil
}

// ChooseCompare gates a current run against the committed baseline using
// machine-independent checks only: each baseline variant's allocs/op must
// not grow beyond tol (absolute slack of 0.05 allocs/op absorbs
// measurement noise from the runtime itself).
func ChooseCompare(cur, base *ChooseReport, tol float64) ([]string, error) {
	if cur.Seed != base.Seed || cur.Pairs != base.Pairs || cur.ObserveEvery != base.ObserveEvery {
		return nil, fmt.Errorf("benchharness: choose baseline mismatch: baseline (seed=%d pairs=%d observe=%d), current (seed=%d pairs=%d observe=%d)",
			base.Seed, base.Pairs, base.ObserveEvery, cur.Seed, cur.Pairs, cur.ObserveEvery)
	}
	var regressions []string
	curBy := chooseVariants(cur)
	baseBy := chooseVariants(base)
	for name, b := range baseBy {
		c, ok := curBy[name]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: variant missing from current run", name))
			continue
		}
		if c.AllocsPerOp > b.AllocsPerOp*(1+tol)+0.05 {
			regressions = append(regressions, fmt.Sprintf(
				"%s: allocs/op %.3f -> %.3f (tolerance %.0f%%)", name, b.AllocsPerOp, c.AllocsPerOp, 100*tol))
		}
	}
	return regressions, nil
}

// WriteChooseJSON persists a choose report.
func WriteChooseJSON(rep *ChooseReport, path string) error {
	return writeJSONFile(rep, path)
}

// ReadChooseJSON loads a previously written choose report.
func ReadChooseJSON(path string) (*ChooseReport, error) {
	var rep ChooseReport
	if err := readJSONFile(path, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

func chooseVariants(r *ChooseReport) map[string]ChooseVariantStat {
	m := make(map[string]ChooseVariantStat, len(r.Variants))
	for _, v := range r.Variants {
		m[v.Variant] = v
	}
	return m
}
