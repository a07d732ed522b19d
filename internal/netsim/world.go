// Package netsim is the ground-truth synthetic Internet model that stands in
// for the paper's 430M-call Skype dataset. It models:
//
//   - a set of ASes, each homed to a country with real coordinates and a
//     last-mile quality class (loss/jitter propensity);
//   - a managed overlay of datacenter relays, all in one AS, connected by a
//     clean private backbone (as in the paper, where all Skype relays live
//     in a single AS);
//   - per-segment path performance with a geodesic propagation base,
//     BGP-style route inflation, Markov-modulated congestion episodes with
//     per-segment persistence, slow week-scale drift, and heavy-tailed
//     per-call noise.
//
// All values derive deterministically from a master seed, so any (segment,
// 24h-window) ground-truth mean can be computed on demand in O(1) without
// storing O(N²) state, and experiments are exactly reproducible.
//
// The model's purpose is behavioural fidelity to §2 of the paper: poor
// performance is spread spatially (not a few bad AS pairs), temporally
// intermittent for most pairs but chronic for ~10-20%, worse for
// international/inter-AS calls, and the best relaying option drifts on a
// timescale of days.
package netsim

import (
	"fmt"
	"math"

	"repro/internal/geo"
	"repro/internal/stats"
)

// ASID identifies an autonomous system in the synthetic world.
type ASID int32

// RelayID identifies a managed-overlay relay node.
type RelayID int32

// AS is an autonomous system: the unit at which Via aggregates history and
// makes decisions.
type AS struct {
	ID      ASID
	Country string    // ISO-style country code
	Loc     geo.Point // representative location (near the country center)
	Weight  float64   // relative share of call traffic originating here
	// accessRTTMs, lossBase, jitterBase characterize the last mile.
	accessRTTMs float64
	lossBase    float64
	jitterBase  float64
}

// Relay is a managed relay node hosted at a datacenter site.
type Relay struct {
	ID   RelayID
	Name string
	Loc  geo.Point
}

// Config parameterizes world construction.
type Config struct {
	Seed      uint64
	NumASes   int // total ASes, distributed over countries by weight (min 2/country)
	NumRelays int // relays used, drawn from the built-in site list (max 24)

	// BounceCandidates is how many relays nearest to each endpoint are
	// offered as bounce options; TransitFan is how many ingress (near the
	// caller) and egress (near the callee) relays are crossed to form
	// transit options. Together with the direct path these yield the
	// "9-20 relaying options" regime of the paper's evaluation (§5.5).
	BounceCandidates int
	TransitFan       int
}

// DefaultConfig returns the configuration used by the experiments: 150 ASes
// across 36 countries and 24 relays, ~20 relaying options per AS pair.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:             seed,
		NumASes:          150,
		NumRelays:        24,
		BounceCandidates: 3,
		TransitFan:       3,
	}
}

// World is the synthetic Internet. All methods are safe for concurrent use.
type World struct {
	cfg     Config
	ases    []AS
	relays  []Relay
	country map[string][]ASID // ASes per country

	root *stats.RNG // master stream (never consumed directly; only split)

	// nearRelays[as] caches relay indices sorted by distance from the AS.
	nearRelays [][]RelayID

	segs  *segmentCache
	paths *pathCache
}

// CacheStats reports the sharded memo caches' hit/miss tallies — the
// telemetry the experiment engine surfaces per run. Pure observation: the
// counts never influence what the caches return.
type CacheStats struct {
	PathHits, PathMisses       int64
	SegmentHits, SegmentMisses int64
}

// CacheStats returns a snapshot of the world's cache counters.
func (w *World) CacheStats() CacheStats {
	return CacheStats{
		PathHits:      w.paths.hits.Load(),
		PathMisses:    w.paths.misses.Load(),
		SegmentHits:   w.segs.hits.Load(),
		SegmentMisses: w.segs.misses.Load(),
	}
}

// New builds a world from cfg. Construction is deterministic in cfg.Seed.
func New(cfg Config) *World {
	if cfg.NumASes < 4 {
		panic("netsim: need at least 4 ASes")
	}
	countries := geo.Countries()
	sites := geo.DatacenterSites()
	if cfg.NumRelays <= 0 || cfg.NumRelays > len(sites) {
		cfg.NumRelays = len(sites)
	}
	if cfg.BounceCandidates <= 0 {
		cfg.BounceCandidates = 3
	}
	if cfg.TransitFan <= 0 {
		cfg.TransitFan = 3
	}

	w := &World{
		cfg:     cfg,
		country: make(map[string][]ASID),
		root:    stats.NewRNG(cfg.Seed),
		segs:    newSegmentCache(),
		paths:   newPathCache(),
	}

	// Allocate ASes to countries proportionally to weight, at least one per
	// country while the budget lasts.
	totalW := 0.0
	for _, c := range countries {
		totalW += c.Weight
	}
	type alloc struct {
		c geo.Country
		n int
	}
	allocs := make([]alloc, len(countries))
	assigned := 0
	for i, c := range countries {
		n := int(float64(cfg.NumASes) * c.Weight / totalW)
		if n < 1 {
			n = 1
		}
		allocs[i] = alloc{c, n}
		assigned += n
	}
	// Trim or pad to hit NumASes exactly, adjusting the largest buckets.
	for assigned > cfg.NumASes {
		maxI := 0
		for i := range allocs {
			if allocs[i].n > allocs[maxI].n {
				maxI = i
			}
		}
		if allocs[maxI].n <= 1 {
			break
		}
		allocs[maxI].n--
		assigned--
	}
	for assigned < cfg.NumASes {
		maxI := 0
		for i := range allocs {
			if allocs[i].c.Weight > allocs[maxI].c.Weight {
				maxI = i
			}
		}
		allocs[maxI].n++
		assigned++
	}

	asRNG := w.root.Split("as-params")
	for _, al := range allocs {
		for k := 0; k < al.n; k++ {
			id := ASID(len(w.ases))
			r := asRNG.SplitN("as", uint64(id))
			// Scatter the AS around the country center so distances differ.
			loc := geo.Point{
				Lat: clampLat(al.c.Center.Lat + r.Normal(0, 2.0)),
				Lon: al.c.Center.Lon + r.Normal(0, 2.0),
			}
			// Last-mile quality class: good/medium/bad eyeball networks.
			// Bad last miles are what no relaying strategy can fix (§2.2),
			// which is why the oracle's PNR reduction saturates near ~50%.
			classMul := 1.0
			switch u := r.Float64(); {
			case u < 0.62:
				classMul = 1.0
			case u < 0.90:
				classMul = 3.0
			default:
				classMul = 9.0
			}
			// A small slice of ASes sit behind high-latency access
			// (satellite, congested cellular): RTT-poor no matter the path.
			accessRTT := r.LogNormal(ln(8), 0.5)
			if r.Float64() < 0.05 {
				accessRTT += 120 + minF(r.Pareto(80, 1.8), 400)
			}
			a := AS{
				ID:          id,
				Country:     al.c.Code,
				Loc:         loc,
				Weight:      al.c.Weight / float64(al.n) * (0.5 + r.Float64()),
				accessRTTMs: accessRTT,
				lossBase:    classMul * r.LogNormal(ln(0.0006), 0.8),
				jitterBase:  classMul * r.LogNormal(ln(1.0), 0.6),
			}
			w.ases = append(w.ases, a)
			w.country[al.c.Code] = append(w.country[al.c.Code], id)
		}
	}

	for i := 0; i < cfg.NumRelays; i++ {
		w.relays = append(w.relays, Relay{
			ID:   RelayID(i),
			Name: sites[i].Name,
			Loc:  sites[i].Center,
		})
	}

	// Precompute relay proximity per AS.
	relaySites := make([]geo.DatacenterSite, len(w.relays))
	for i, r := range w.relays {
		relaySites[i] = geo.DatacenterSite{Name: r.Name, Center: r.Loc}
	}
	w.nearRelays = make([][]RelayID, len(w.ases))
	for i := range w.ases {
		order := geo.NearestK(w.ases[i].Loc, relaySites, len(relaySites))
		ids := make([]RelayID, len(order))
		for k, idx := range order {
			ids[k] = RelayID(idx)
		}
		w.nearRelays[i] = ids
	}

	return w
}

func clampLat(v float64) float64 {
	if v > 89 {
		return 89
	}
	if v < -89 {
		return -89
	}
	return v
}

// ln is a readability helper for lognormal medians: LogNormal(ln(m), σ) has
// median m.
func ln(x float64) float64 {
	if x <= 0 {
		panic("netsim: ln of non-positive")
	}
	return math.Log(x)
}

// NumASes returns the AS count.
func (w *World) NumASes() int { return len(w.ases) }

// NumRelays returns the relay count.
func (w *World) NumRelays() int { return len(w.relays) }

// AS returns the AS with the given id.
func (w *World) AS(id ASID) AS {
	return w.ases[id]
}

// ASesInCountry returns the AS ids homed in the given country code.
func (w *World) ASesInCountry(code string) []ASID {
	out := make([]ASID, len(w.country[code]))
	copy(out, w.country[code])
	return out
}

// CountryOf returns the country code of an AS.
func (w *World) CountryOf(id ASID) string { return w.ases[id].Country }

// International reports whether a call between the two ASes crosses a
// country border.
func (w *World) International(a, b ASID) bool {
	return w.ases[a].Country != w.ases[b].Country
}

// NearestRelays returns the k relays closest to the AS, nearest first.
func (w *World) NearestRelays(a ASID, k int) []RelayID {
	all := w.nearRelays[a]
	if k > len(all) {
		k = len(all)
	}
	out := make([]RelayID, k)
	copy(out, all[:k])
	return out
}

func (w *World) String() string {
	return fmt.Sprintf("netsim.World{ases: %d, relays: %d, seed: %d}",
		len(w.ases), len(w.relays), w.cfg.Seed)
}
