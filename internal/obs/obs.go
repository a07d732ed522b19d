// Package obs is the repo's zero-dependency observability layer: a
// sharded metrics registry (counters, gauges, callback gauges, and
// fixed-bucket histograms with quantile summaries) plus a lightweight
// span sink that records per-call decision traces as structured JSONL.
//
// Two constraints shape the design, both enforced by vialint:
//
//   - Sim-time awareness (determinism): nothing in this package reads the
//     wall clock or ambient randomness. Every timestamp is supplied by the
//     caller — live-network packages (controller, relay, client) pass real
//     durations, simulation packages pass virtual hours — so the package
//     is a legal dependency of the deterministic simulation stack and is
//     itself listed in the determinism analyzer's targets.
//   - Safety under the parallel Runner (lockcheck): registry shards are
//     `// guarded by mu` annotated RWMutex maps, and every metric value is
//     a lock-free atomic, so GOMAXPROCS-many strategy replays can hammer
//     one counter without serializing.
//
// Naming scheme (see DESIGN.md §11): `via_<subsystem>_<noun>` with unit
// suffixes `_total` (monotonic counters), `_seconds`, `_bytes`, and an
// optional label set rendered into the name by L, e.g.
// `via_relay_forwarded_packets_total{relay="3"}`. Exposition (WriteText)
// is a Prometheus-compatible text format; histograms additionally export
// `_p50`/`_p95`/`_p99` gauge lines so a snapshot diff shows distribution
// drift directly.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// kind discriminates registered metric types so a name cannot silently
// change meaning between call sites.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
	kindCounterFunc
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindGaugeFunc:
		return "gaugefunc"
	case kindHistogram:
		return "histogram"
	case kindCounterFunc:
		return "counterfunc"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// entry is one registered metric.
type entry struct {
	kind kind
	c    *Counter
	g    *Gauge
	f    func() float64
	cf   func() int64
	h    *Histogram
}

// shardCount shards the registry's name map. Registration is rare but
// lookups happen on hot paths (a lazily-fetched counter per decision), so
// shards keep readers uncontended. Power of two: the index is a mask.
const shardCount = 16

type registryShard struct {
	mu sync.RWMutex
	m  map[string]*entry // guarded by mu
}

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	shards [shardCount]registryShard
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{}
}

// fnv1a hashes a metric name for shard selection.
func fnv1a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

func (r *Registry) shard(name string) *registryShard {
	return &r.shards[fnv1a(name)&(shardCount-1)]
}

// lookup returns the entry for name if present.
func (s *registryShard) lookup(name string) (*entry, bool) {
	s.mu.RLock()
	e, ok := s.m[name] // reads of a nil map are legal: miss
	s.mu.RUnlock()
	return e, ok
}

// getOrCreate installs build()'s entry under name unless one already
// exists; a kind clash is a programming error and panics.
func (r *Registry) getOrCreate(name string, k kind, build func() *entry) *entry {
	s := r.shard(name)
	if e, ok := s.lookup(name); ok {
		if e.kind != k {
			panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, e.kind, k))
		}
		return e
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[string]*entry)
	}
	if e, ok := s.m[name]; ok {
		if e.kind != k {
			panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, e.kind, k))
		}
		return e
	}
	e := build()
	s.m[name] = e
	return e
}

// Counter returns the named monotonic counter, creating it on first use.
// Nil-safe: a nil registry returns a detached counter, so instrumented
// code needs no "is observability on?" branches.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	e := r.getOrCreate(name, kindCounter, func() *entry {
		return &entry{kind: kindCounter, c: &Counter{}}
	})
	return e.c
}

// Gauge returns the named gauge, creating it on first use. Nil-safe like
// Counter.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	e := r.getOrCreate(name, kindGauge, func() *entry {
		return &entry{kind: kindGauge, g: &Gauge{}}
	})
	return e.g
}

// GaugeFunc registers a callback gauge evaluated at exposition time —
// the bridge for components that already keep their own atomics (relay
// packet counts, client failovers). Re-registering a name replaces the
// callback: a revived relay re-registers its node and the new process's
// counters take over. Nil registry: no-op.
func (r *Registry) GaugeFunc(name string, f func() float64) {
	if r == nil {
		return
	}
	s := r.shard(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[string]*entry)
	}
	if e, ok := s.m[name]; ok && e.kind != kindGaugeFunc {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as gaugefunc", name, e.kind))
	}
	if f == nil { // nil callback reads as zero, like every other instrument
		f = func() float64 { return 0 }
	}
	s.m[name] = &entry{kind: kindGaugeFunc, f: f}
}

// CounterFunc registers a callback counter evaluated at exposition time —
// the bridge for components that already keep their own monotonic atomics
// (a relay's or client's event counts) and must not pay a second atomic
// add on the hot path to mirror them into a Counter. The callback must be
// monotonic. Replace semantics mirror GaugeFunc: re-registering a name
// swaps the callback, so a rebuilt component rebinds cleanly. Nil
// registry: no-op.
func (r *Registry) CounterFunc(name string, f func() int64) {
	if r == nil {
		return
	}
	s := r.shard(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[string]*entry)
	}
	if e, ok := s.m[name]; ok && e.kind != kindCounterFunc {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as counterfunc", name, e.kind))
	}
	if f == nil { // nil callback reads as zero, like every other instrument
		f = func() int64 { return 0 }
	}
	s.m[name] = &entry{kind: kindCounterFunc, cf: f}
}

// Histogram returns the named fixed-bucket histogram, creating it with
// the given bucket upper bounds on first use (later calls may pass nil
// bounds to fetch the existing instance). Nil-safe like Counter.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return NewHistogram(bounds)
	}
	e := r.getOrCreate(name, kindHistogram, func() *entry {
		return &entry{kind: kindHistogram, h: NewHistogram(bounds)}
	})
	return e.h
}

// each calls fn for every registered metric, sorted by name — the
// deterministic iteration exposition and snapshots rely on.
func (r *Registry) each(fn func(name string, e *entry)) {
	type named struct {
		name string
		e    *entry
	}
	var all []named
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.RLock()
		for name, e := range s.m {
			all = append(all, named{name, e})
		}
		s.mu.RUnlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	for _, n := range all {
		fn(n.name, n.e)
	}
}

// Snapshot flattens every metric to name → value: counters and gauges
// directly, histograms as `<name>_count`, `<name>_sum`, and
// `<name>_p50/..p95/..p99` entries. Tests assert on this map; the chaos
// harness diffs two of them.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	out := make(map[string]float64)
	r.each(func(name string, e *entry) {
		switch e.kind {
		case kindCounter:
			out[name] = float64(e.c.Value())
		case kindGauge:
			out[name] = e.g.Value()
		case kindGaugeFunc:
			out[name] = e.f()
		case kindCounterFunc:
			out[name] = float64(e.cf())
		case kindHistogram:
			base, labels := splitLabels(name)
			out[joinLabels(base+"_count", labels)] = float64(e.h.Count())
			out[joinLabels(base+"_sum", labels)] = e.h.Sum()
			for _, q := range []struct {
				suffix string
				q      float64
			}{{"_p50", 0.5}, {"_p95", 0.95}, {"_p99", 0.99}} {
				if v, ok := e.h.Quantile(q.q); ok {
					out[joinLabels(base+q.suffix, labels)] = v
				}
			}
		}
	})
	return out
}

// Counter is a monotonic atomic counter. The zero value is ready to use
// (and is what a nil registry hands out: a detached, harmless sink).
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
//
//via:noalloc
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are a programming error but not checked on
// the hot path).
//
//via:noalloc
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic float64 gauge.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
//
//via:noalloc
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta with a CAS loop (gauges are low-rate; contention is not
// a concern).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		cur := math.Float64frombits(old)
		if g.bits.CompareAndSwap(old, math.Float64bits(cur+delta)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// L renders a metric name with a label set: L("x_total", "relay", "3")
// → `x_total{relay="3"}`. Keys are emitted in the order given; callers
// pass them in a fixed order so the same series always maps to the same
// string. Values are escaped for quotes and backslashes.
func L(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	if len(kv)%2 != 0 {
		panic("obs: L requires key/value pairs")
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, `"\`+"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// splitLabels splits `base{labels}` into its parts; names without labels
// return an empty label string.
func splitLabels(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

// joinLabels re-attaches a label string produced by splitLabels.
func joinLabels(base, labels string) string {
	if labels == "" {
		return base
	}
	return base + "{" + labels + "}"
}
