package core

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/netsim"
	"repro/internal/quality"
	"repro/internal/stats"
)

// Loss-repair scheme selection: the option space of §4 extended from paths
// to (path, repair) pairs. The path decision stays with Algorithm 1 — the
// repair scheme is a second, much smaller bandit layered per group pair,
// because the right scheme depends on the pair's loss character (NACK wins
// on low-RTT reliable paths, FEC/RED under bursty loss) while the reward
// signal (post-repair MOS) arrives through the same Observe stream.
//
// Redundancy is not free: RED doubles the media bitrate and FEC-k adds
// 1/k. The §4.6 budget treatment applies unchanged — a talk-time-weighted
// overhead ledger caps the fraction of call-seconds spent on redundant
// bytes, and schemes whose projected overhead would blow the budget are
// masked out of the bandit's candidate set for that call.

// RepairStrategy is the optional extension a Strategy may implement to
// co-select a loss-repair scheme with the path. Callers that hold a plain
// Strategy type-assert for it and fall back to no repair.
type RepairStrategy interface {
	// ChooseRepair picks one of the offered scheme names ("none", "nack",
	// "red", "fec-4", ...) for a call assigned to opt. An empty result
	// means no repair.
	ChooseRepair(c Call, opt netsim.Option, schemes []string) string
	// ObserveRepair reports the realized post-repair call quality for the
	// scheme that was actually used.
	ObserveRepair(c Call, opt netsim.Option, scheme string, m quality.Metrics)
}

// RepairOverhead returns the redundant-bandwidth fraction of a scheme by
// name: 0 for none, a nominal 5% for NACK (retransmits scale with loss,
// not with the stream), 100% for RED duplication, and 1/k for "fec-k".
// Unknown names are charged like RED — the conservative reading.
func RepairOverhead(scheme string) float64 {
	switch scheme {
	case "", "none":
		return 0
	case "nack":
		return 0.05
	case "red":
		return 1
	}
	if k, ok := fecGroup(scheme); ok {
		return 1 / float64(k)
	}
	return 1
}

// fecGroup parses "fec-k" names.
func fecGroup(scheme string) (int, bool) {
	rest, ok := strings.CutPrefix(scheme, "fec-")
	if !ok {
		return 0, false
	}
	k, err := strconv.Atoi(rest)
	if err != nil || k < 2 {
		return 0, false
	}
	return k, true
}

// repairArm is the running cost state of one scheme for one pair.
type repairArm struct {
	count float64
	sum   float64 // Σ cost; lower is better (4.5 − MOS)
}

// RepairBandit selects repair schemes for one group pair: ε-greedy
// exploration over a UCB1-min exploitation core, with a talk-time
// redundancy budget masking schemes the pair can no longer afford.
// Not safe for concurrent use; Via serializes access under its own lock.
type RepairBandit struct {
	eps    float64
	coef   float64
	budget float64 // max overheadSec/totalSec; >= 1 means unconstrained

	arms map[string]*repairArm
	t    float64

	overheadSec float64
	totalSec    float64
}

// NewRepairBandit builds a bandit with the given exploration fraction,
// UCB coefficient, and redundancy budget (fraction of talk-time-weighted
// bandwidth; >= 1 disables the budget).
func NewRepairBandit(eps, coef, budget float64) *RepairBandit {
	if coef <= 0 {
		coef = 0.1
	}
	if budget <= 0 {
		budget = 1
	}
	return &RepairBandit{
		eps:    eps,
		coef:   coef,
		budget: budget,
		arms:   make(map[string]*repairArm),
	}
}

// allowed reports whether charging the scheme's redundancy for durSec more
// seconds keeps the pair inside the budget. Cheap schemes (none, NACK)
// always pass — repair must never be starved down to nothing.
func (b *RepairBandit) allowed(scheme string, durSec float64) bool {
	ov := RepairOverhead(scheme)
	if ov <= 0.05 || b.budget >= 1 {
		return true
	}
	projected := b.overheadSec + ov*durSec
	return projected <= b.budget*(b.totalSec+durSec)
}

// Choose picks a scheme from the offered list (order matters for
// deterministic tie-breaks) and charges its redundancy against the budget.
// rng supplies the ε draw; durSec weights the budget charge (0 = average
// call).
func (b *RepairBandit) Choose(schemes []string, durSec float64, rng *stats.RNG) string {
	if durSec <= 0 {
		durSec = 180
	}
	eligible := make([]string, 0, len(schemes))
	for _, s := range schemes {
		if b.allowed(s, durSec) {
			eligible = append(eligible, s)
		}
	}
	if len(eligible) == 0 {
		eligible = append(eligible, "none")
	}

	var pick string
	if len(eligible) == 1 {
		pick = eligible[0]
	} else if rng.Float64() < b.eps {
		pick = eligible[rng.IntN(len(eligible))]
	} else {
		pick = b.exploit(eligible)
	}

	b.totalSec += durSec
	b.overheadSec += RepairOverhead(pick) * durSec
	return pick
}

// exploit is UCB1 over cost (lower is better): an untried arm is taken
// immediately, in offer order, so every scheme gets its init sample.
func (b *RepairBandit) exploit(eligible []string) string {
	for _, s := range eligible {
		if a := b.arms[s]; a == nil || a.count < 1 {
			return s
		}
	}
	t := b.t + 1
	best := eligible[0]
	bestUCB := 0.0
	for i, s := range eligible {
		a := b.arms[s]
		ucb := a.sum/a.count - math.Sqrt(b.coef*math.Log(t)/a.count)
		if i == 0 || ucb < bestUCB {
			best, bestUCB = s, ucb
		}
	}
	return best
}

// Observe folds one realized cost (lower is better) into the scheme's arm.
func (b *RepairBandit) Observe(scheme string, cost float64) {
	a := b.arms[scheme]
	if a == nil {
		a = &repairArm{}
		b.arms[scheme] = a
	}
	a.count++
	a.sum += cost
	b.t++
}

// OverheadFraction reports the talk-time-weighted redundancy spent so far.
func (b *RepairBandit) OverheadFraction() float64 {
	if b.totalSec == 0 {
		return 0
	}
	return b.overheadSec / b.totalSec
}

// Counts returns the per-scheme assignment counts (diagnostics, tests).
func (b *RepairBandit) Counts() map[string]float64 {
	out := make(map[string]float64, len(b.arms))
	for s, a := range b.arms {
		out[s] = a.count
	}
	return out
}

// MostChosen returns the scheme with the highest assignment count
// (deterministic tie-break by name).
func (b *RepairBandit) MostChosen() string {
	best, bestN := "", -1.0
	names := make([]string, 0, len(b.arms))
	for s := range b.arms {
		names = append(names, s)
	}
	sort.Strings(names)
	for _, s := range names {
		if n := b.arms[s].count; n > bestN {
			best, bestN = s, n
		}
	}
	return best
}

// --- Via integration ---------------------------------------------------

// repairCost maps post-repair call quality to the bandit's cost signal:
// 4.5 − MOS, so a perfect call costs 0 and the scale stays comparable
// across pairs. A small overhead penalty keeps redundancy from being free
// when two schemes repair equally well.
func repairCost(scheme string, m quality.Metrics) float64 {
	mos := quality.DefaultEModel().MOS(m)
	return (4.5 - mos) + 0.05*RepairOverhead(scheme)
}

// repairBanditLocked returns (creating if needed) the pair's scheme
// bandit. Caller holds v.mu.
func (v *Via) repairBanditLocked(gp groupPair) *RepairBandit {
	if v.repairPairs == nil {
		v.repairPairs = make(map[groupPair]*RepairBandit)
	}
	b := v.repairPairs[gp]
	if b == nil {
		b = NewRepairBandit(v.cfg.Epsilon, v.cfg.UCBCoef, v.cfg.RepairOverheadBudget)
		v.repairPairs[gp] = b
	}
	return b
}

// ChooseRepair implements RepairStrategy: pick a repair scheme for the
// call from the offered names. The draw comes from a dedicated RNG stream
// ("via-repair") so enabling repair does not perturb the path-selection
// ε sequence — legacy WALs replay bit-identically.
func (v *Via) ChooseRepair(c Call, _ netsim.Option, schemes []string) string {
	if len(schemes) == 0 {
		return ""
	}
	// When the config pins an allowed set, offer only its intersection
	// with the caller's candidates (offer order preserved).
	if len(v.cfg.RepairSchemes) > 0 {
		filtered := make([]string, 0, len(schemes))
		for _, s := range schemes {
			for _, ok := range v.cfg.RepairSchemes {
				if s == ok {
					filtered = append(filtered, s)
					break
				}
			}
		}
		if len(filtered) == 0 {
			return "none"
		}
		schemes = filtered
	}
	g1, g2 := v.cfg.Groups(c)
	gp := groupPair{g1, g2}
	if g1 > g2 {
		gp = groupPair{g2, g1}
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.repairBanditLocked(gp).Choose(schemes, c.DurationSec, v.repairRNG)
}

// ObserveRepair implements RepairStrategy: fold the realized post-repair
// quality into the pair's scheme bandit.
func (v *Via) ObserveRepair(c Call, _ netsim.Option, scheme string, m quality.Metrics) {
	if scheme == "" {
		return
	}
	g1, g2 := v.cfg.Groups(c)
	gp := groupPair{g1, g2}
	if g1 > g2 {
		gp = groupPair{g2, g1}
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.repairBanditLocked(gp).Observe(scheme, repairCost(scheme, m))
}

var _ RepairStrategy = (*Via)(nil)

// validateRepairSchemes panics on malformed configured scheme names so a
// typo fails at construction, not mid-run.
func validateRepairSchemes(schemes []string) {
	for _, s := range schemes {
		switch s {
		case "none", "nack", "red":
			continue
		}
		if _, ok := fecGroup(s); !ok {
			panic(fmt.Sprintf("core: unknown repair scheme %q", s))
		}
	}
}
