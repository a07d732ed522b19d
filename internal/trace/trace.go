// Package trace generates the synthetic call workload that stands in for the
// paper's sampled Skype dataset (Table 1). It produces a chronological
// stream of call records whose marginals match the published
// characteristics: ~46.6% international calls, ~80.7% inter-AS calls, a
// Zipf-skewed distribution of call volume over AS pairs (the data-density
// skew that motivates prediction-guided exploration, §4.2), lognormal call
// durations, and a small rated fraction with 5-star user ratings drawn from
// the quality model.
package trace

import (
	"fmt"
	"math"

	"repro/internal/netsim"
	"repro/internal/quality"
	"repro/internal/stats"
)

// CallRecord is one call as the controller's history would record it.
type CallRecord struct {
	ID       int64
	THours   float64 // call start, hours since the trace epoch
	Src, Dst netsim.ASID
	Option   netsim.Option   // routing used; Direct for the baseline trace
	Metrics  quality.Metrics // call-average network performance
	Duration float64         // seconds of talk time
	Rating   int             // 1-5 user rating, 0 if the call was not rated
	UserSrc  int64           // synthetic caller identity
	UserDst  int64           // synthetic callee identity
}

// Window returns the 24-hour window index of the call.
func (c CallRecord) Window() int { return netsim.WindowOf(c.THours) }

// Config parameterizes workload generation.
type Config struct {
	Seed  uint64
	Days  int // trace length in days
	Calls int // total calls to generate

	// PairPopulation is how many distinct (src, dst) AS pairs carry the
	// traffic; call volume over them is Zipf(PairZipfExponent).
	PairPopulation   int
	PairZipfExponent float64

	// InternationalFrac and IntraASFrac reproduce Table 1's composition:
	// the paper saw 46.6% international and 19.3% intra-AS calls.
	InternationalFrac float64
	IntraASFrac       float64

	// RatedFrac is the fraction of calls carrying a user rating.
	RatedFrac float64

	// UsersPerAS controls the synthetic user-population size.
	UsersPerAS int
}

// DefaultConfig matches the experiments' default workload: 28 days and a
// configurable call count.
func DefaultConfig(seed uint64, calls int) Config {
	return Config{
		Seed:              seed,
		Days:              28,
		Calls:             calls,
		PairPopulation:    6000,
		PairZipfExponent:  0.7,
		InternationalFrac: 0.466,
		IntraASFrac:       0.193,
		RatedFrac:         0.30,
		UsersPerAS:        900,
	}
}

// Pair is a directed AS pair.
type Pair struct {
	Src, Dst netsim.ASID
}

func (p Pair) String() string { return fmt.Sprintf("%d-%d", p.Src, p.Dst) }

// Generator produces call records against a world.
type Generator struct {
	cfg   Config
	w     *netsim.World
	rng   *stats.RNG
	pairs []Pair
	zipf  *stats.Zipf
	rm    quality.RatingModel

	srcPick *weightedPicker
}

// NewGenerator builds a generator. Pair population construction is
// deterministic in cfg.Seed.
func NewGenerator(w *netsim.World, cfg Config) *Generator {
	if cfg.Days <= 0 || cfg.Calls <= 0 {
		panic("trace: Days and Calls must be positive")
	}
	if cfg.PairPopulation <= 0 {
		cfg.PairPopulation = 3000
	}
	if cfg.PairZipfExponent <= 0 {
		cfg.PairZipfExponent = 1.05
	}
	g := &Generator{
		cfg: cfg,
		w:   w,
		rng: stats.NewRNG(cfg.Seed).Split("trace"),
		rm:  quality.DefaultRatingModel(),
	}
	g.srcPick = newWeightedPicker(w)
	pr := stats.NewRNG(cfg.Seed).Split("pairs")
	g.pairs = make([]Pair, cfg.PairPopulation)
	for i := range g.pairs {
		g.pairs[i] = g.samplePair(pr)
	}
	g.zipf = stats.NewZipf(stats.NewRNG(cfg.Seed).Split("zipf"), len(g.pairs), cfg.PairZipfExponent)
	return g
}

// samplePair draws one (src, dst) pair honoring the configured
// international/intra-AS composition.
func (g *Generator) samplePair(r *stats.RNG) Pair {
	src := g.srcPick.pick(r)
	srcCountry := g.w.CountryOf(src)
	u := r.Float64()
	switch {
	case u < g.cfg.InternationalFrac:
		// International: pick weighted destinations until one is abroad.
		for tries := 0; tries < 64; tries++ {
			dst := g.srcPick.pick(r)
			if g.w.CountryOf(dst) != srcCountry {
				return Pair{src, dst}
			}
		}
		return Pair{src, src} // degenerate world; give up gracefully
	case u < g.cfg.InternationalFrac+g.cfg.IntraASFrac:
		return Pair{src, src}
	default:
		// Domestic inter-AS.
		local := g.w.ASesInCountry(srcCountry)
		if len(local) < 2 {
			return Pair{src, src}
		}
		for tries := 0; tries < 64; tries++ {
			dst := local[r.IntN(len(local))]
			if dst != src {
				return Pair{src, dst}
			}
		}
		return Pair{src, src}
	}
}

// Generate produces the full trace in chronological order, invoking emit for
// each record. Records are routed over the direct path, matching the
// passively collected dataset of §2 (relayed samples appear later, once a
// strategy explores).
func (g *Generator) Generate(emit func(CallRecord)) {
	horizon := float64(g.cfg.Days) * 24
	for i := 0; i < g.cfg.Calls; i++ {
		rec := g.genCall(int64(i), horizon)
		emit(rec)
	}
}

// GenerateSlice is a convenience wrapper returning the trace as a slice.
func (g *Generator) GenerateSlice() []CallRecord {
	out := make([]CallRecord, 0, g.cfg.Calls)
	g.Generate(func(c CallRecord) { out = append(out, c) })
	return out
}

func (g *Generator) genCall(id int64, horizon float64) CallRecord {
	// Strictly increasing timestamps keep the trace chronological.
	t := horizon * (float64(id) + g.rng.Float64()) / float64(g.cfg.Calls)
	p := g.pairs[g.zipf.Sample()]
	opt := netsim.DirectOption()
	m := g.w.SampleCall(p.Src, p.Dst, opt, t, g.rng)

	rec := CallRecord{
		ID:       id,
		THours:   t,
		Src:      p.Src,
		Dst:      p.Dst,
		Option:   opt,
		Metrics:  m,
		Duration: g.rng.LogNormal(math.Log(180), 1.0),
		UserSrc:  int64(p.Src)*int64(g.cfg.UsersPerAS) + int64(g.rng.IntN(maxI(g.cfg.UsersPerAS, 1))),
		UserDst:  int64(p.Dst)*int64(g.cfg.UsersPerAS) + int64(g.rng.IntN(maxI(g.cfg.UsersPerAS, 1))),
	}
	if g.rng.Float64() < g.cfg.RatedFrac {
		rec.Rating = g.rm.Rate(m, g.rng.Float64())
	}
	return rec
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Summary aggregates Table 1-style statistics over a trace.
type Summary struct {
	Calls         int64
	Users         int64
	ASes          int
	Countries     int
	International float64 // fraction
	InterAS       float64 // fraction
	Rated         float64 // fraction
	Days          float64
}

// Summarize computes a Summary in one pass.
func Summarize(w *netsim.World, recs []CallRecord) Summary {
	var s Summary
	users := map[int64]bool{}
	ases := map[netsim.ASID]bool{}
	countries := map[string]bool{}
	var intl, interAS, rated int64
	var maxT float64
	for _, c := range recs {
		s.Calls++
		users[c.UserSrc] = true
		users[c.UserDst] = true
		ases[c.Src] = true
		ases[c.Dst] = true
		countries[w.CountryOf(c.Src)] = true
		countries[w.CountryOf(c.Dst)] = true
		if w.International(c.Src, c.Dst) {
			intl++
		}
		if c.Src != c.Dst {
			interAS++
		}
		if c.Rating > 0 {
			rated++
		}
		if c.THours > maxT {
			maxT = c.THours
		}
	}
	s.Users = int64(len(users))
	s.ASes = len(ases)
	s.Countries = len(countries)
	if s.Calls > 0 {
		s.International = float64(intl) / float64(s.Calls)
		s.InterAS = float64(interAS) / float64(s.Calls)
		s.Rated = float64(rated) / float64(s.Calls)
	}
	s.Days = maxT / 24
	return s
}
