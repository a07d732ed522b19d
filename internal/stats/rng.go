// Package stats provides the statistical substrate used throughout the Via
// reproduction: deterministic splittable random number generation, streaming
// moment and quantile estimators, histogram and CDF construction, correlation,
// and the heavy-tailed samplers used by the synthetic Internet model.
//
// Everything here is allocation-conscious and safe to call from hot
// simulation loops. None of it uses wall-clock time; all randomness flows
// from explicit seeds so experiments are reproducible bit-for-bit.
package stats

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
)

// RNG is a deterministic random number generator that supports hierarchical
// splitting: a child generator derived via Split(label) is statistically
// independent of its parent and of children split under different labels.
// This lets each subsystem (trace generator, congestion processes, strategy
// exploration, ...) own an independent stream derived from one master seed,
// so adding randomness consumption in one subsystem never perturbs another.
type RNG struct {
	src *rand.Rand
	pcg *rand.PCG // the src's source, retained so State can marshal the exact position
	// seed material retained so Split can derive children deterministically.
	hi, lo uint64
}

// NewRNG returns a generator seeded from the given master seed.
func NewRNG(seed uint64) *RNG {
	return newRNGFromState(seed, 0x9e3779b97f4a7c15)
}

func newRNGFromState(hi, lo uint64) *RNG {
	pcg := rand.NewPCG(hi, lo)
	return &RNG{
		src: rand.New(pcg),
		pcg: pcg,
		hi:  hi,
		lo:  lo,
	}
}

// RNGState is the serializable position of a generator: the seed material
// (so Split keeps deriving the same children after a restore) plus the
// exact PCG stream position. It exists so long-lived learned state — the
// controller's strategy — can snapshot its randomness and resume the very
// same stream after a crash, keeping replayed decisions bit-identical.
type RNGState struct {
	Hi, Lo uint64
	PCG    []byte
}

// State captures the generator's exact current position.
func (r *RNG) State() (RNGState, error) {
	buf, err := r.pcg.MarshalBinary()
	if err != nil {
		return RNGState{}, fmt.Errorf("stats: marshal PCG state: %w", err)
	}
	return RNGState{Hi: r.hi, Lo: r.lo, PCG: buf}, nil
}

// RestoreRNG rebuilds a generator at the captured position: it produces the
// same future sample sequence the captured generator would have.
func RestoreRNG(s RNGState) (*RNG, error) {
	r := newRNGFromState(s.Hi, s.Lo)
	if err := r.pcg.UnmarshalBinary(s.PCG); err != nil {
		return nil, fmt.Errorf("stats: restore PCG state: %w", err)
	}
	return r, nil
}

// Split derives an independent child generator identified by label.
// Splitting with the same label always yields the same child stream.
func (r *RNG) Split(label string) *RNG {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label)) //vialint:ignore errwrap hash.Hash.Write is documented to never return an error
	mix := h.Sum64()
	return newRNGFromState(r.hi^mix, r.lo+mix*0x2545f4914f6cdd1d+1)
}

// SplitN derives an independent child generator identified by an integer,
// useful for per-entity streams (per AS pair, per relay, ...).
func (r *RNG) SplitN(label string, n uint64) *RNG {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label)) //vialint:ignore errwrap hash.Hash.Write is documented to never return an error
	mix := h.Sum64() ^ (n*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019)
	return newRNGFromState(r.hi^mix, r.lo+mix*0x2545f4914f6cdd1d+1)
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// IntN returns a uniform sample in [0, n). It panics if n <= 0.
func (r *RNG) IntN(n int) int { return r.src.IntN(n) }

// Uint64 returns a uniform 64-bit sample.
func (r *RNG) Uint64() uint64 { return r.src.Uint64() }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// NormFloat64 returns a standard normal sample.
func (r *RNG) NormFloat64() float64 { return r.src.NormFloat64() }

// Normal returns a Gaussian sample with the given mean and standard
// deviation.
func (r *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.src.NormFloat64()
}

// LogNormal returns a sample whose logarithm is Normal(mu, sigma).
// The distribution's median is exp(mu).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.src.NormFloat64())
}

// Exponential returns an exponential sample with the given mean.
func (r *RNG) Exponential(mean float64) float64 {
	return mean * r.src.ExpFloat64()
}

// Pareto returns a Pareto(xm, alpha) sample: heavy-tailed with minimum xm.
// Smaller alpha means heavier tail; the mean is finite only for alpha > 1.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	u := r.src.Float64()
	// Guard against u == 0 which would produce +Inf.
	if u < 1e-300 {
		u = 1e-300
	}
	return xm / math.Pow(u, 1/alpha)
}

// Zipf samples from a finite Zipf distribution over {0, ..., n-1} with
// exponent s: P(k) ∝ 1/(k+1)^s. It precomputes the CDF once, so sampling is
// a binary search. Use NewZipf to build one.
type Zipf struct {
	cdf []float64
	rng *RNG
}

// NewZipf builds a finite Zipf sampler over n items with exponent s > 0.
// The sampler draws from rng.
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("stats: Zipf needs n > 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &Zipf{cdf: cdf, rng: rng}
}

// Sample returns a rank in [0, n), with rank 0 the most popular.
func (z *Zipf) Sample() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Prob returns the probability mass of rank k.
func (z *Zipf) Prob(k int) float64 {
	if k < 0 || k >= len(z.cdf) {
		return 0
	}
	if k == 0 {
		return z.cdf[0]
	}
	return z.cdf[k] - z.cdf[k-1]
}
