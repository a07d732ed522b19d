package core

import (
	"sync"
	"testing"

	"repro/internal/netsim"
	"repro/internal/quality"
)

// checkEpochInvalidation asserts that, whatever the inner strategy, a report
// observed through the cache bumps its pair's epoch exactly once: one report
// forces one recompute, and a report from the reverse direction invalidates
// the same entry.
func checkEpochInvalidation(t *testing.T, inner Strategy) {
	t.Helper()
	c := NewCached(inner, 1000) // TTL far away; only epochs can miss
	cands := []netsim.Option{netsim.DirectOption(), netsim.BounceOption(1)}
	now := 30.0
	choose := func(src, dst netsim.ASID) {
		now++
		c.Choose(Call{Src: src, Dst: dst, THours: now}, cands)
	}
	choose(1, 2) // miss (cold)
	choose(2, 1) // hit
	for i, from := range []netsim.ASID{1, 2} {
		to := 3 - from
		c.Observe(Call{Src: from, Dst: to, THours: now}, netsim.DirectOption(), quality.Metrics{RTTMs: 80})
		choose(1, 2) // miss: epoch bumped
		choose(2, 1) // hit again
		if got, want := c.Misses(), int64(i+2); got != want {
			t.Errorf("after report %d: misses = %d, want %d", i+1, got, want)
		}
		if got, want := c.Invalidations(), int64(i+1); got != want {
			t.Errorf("after report %d: invalidations = %d, want %d", i+1, got, want)
		}
	}
}

func TestCachedEpochInvalidationUnhookedInner(t *testing.T) {
	checkEpochInvalidation(t, &countingStrategy{})
}

// TestCachedEpochInvalidationViaHook wraps a Via, whose Observe once also
// bumped the cache epoch through a report hook; a surviving second bump
// would show as two invalidations per report.
func TestCachedEpochInvalidationViaHook(t *testing.T) {
	viaCfg := DefaultViaConfig(quality.RTT)
	viaCfg.Epsilon = 0 // no exploration noise; decisions are deterministic
	checkEpochInvalidation(t, NewVia(viaCfg, nil))
}

func TestCachedServesFromCache(t *testing.T) {
	calls := 0
	inner := &countingStrategy{onChoose: func() { calls++ }}
	c := NewCached(inner, 2) // 2-hour TTL
	cands := []netsim.Option{netsim.DirectOption()}

	c.Choose(Call{Src: 1, Dst: 2, THours: 0}, cands)   // miss
	c.Choose(Call{Src: 1, Dst: 2, THours: 1}, cands)   // hit
	c.Choose(Call{Src: 2, Dst: 1, THours: 1.5}, cands) // hit (reverse dir)
	c.Choose(Call{Src: 1, Dst: 2, THours: 2.5}, cands) // expired → miss
	if calls != 2 {
		t.Errorf("inner consulted %d times, want 2", calls)
	}
	if hr := c.HitRate(); hr != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", hr)
	}
	if c.Name() != "counting+cache" {
		t.Errorf("name = %q", c.Name())
	}
}

func TestCachedFlipsTransitForReverseDirection(t *testing.T) {
	inner := &fixedStrategy{opt: netsim.TransitOption(1, 2)}
	c := NewCached(inner, 10)
	cands := []netsim.Option{netsim.TransitOption(1, 2)}
	got1 := c.Choose(Call{Src: 1, Dst: 9, THours: 0}, cands)
	if got1 != netsim.TransitOption(1, 2) {
		t.Fatalf("first choice %v", got1)
	}
	// Reverse direction served from cache must flip the transit route.
	got2 := c.Choose(Call{Src: 9, Dst: 1, THours: 1}, cands)
	if got2 != netsim.TransitOption(2, 1) {
		t.Errorf("reverse cached choice = %v, want transit(2->1)", got2)
	}
}

type fixedStrategy struct{ opt netsim.Option }

func (f *fixedStrategy) Name() string { return "fixed" }
func (f *fixedStrategy) Choose(c Call, _ []netsim.Option) netsim.Option {
	return canonOpt(int32(c.Src), int32(c.Dst), f.opt)
}
func (f *fixedStrategy) Observe(Call, netsim.Option, quality.Metrics) {}

func TestCachedObservePassesThrough(t *testing.T) {
	rec := &recordingObserver{}
	c := NewCached(rec, 1)
	c.Observe(Call{Src: 1, Dst: 2}, netsim.DirectOption(), quality.Metrics{})
	if rec.n != 1 {
		t.Error("observe did not pass through")
	}
}

func TestCachedBoundedEviction(t *testing.T) {
	inner := &countingStrategy{}
	// maxPairs below the shard count clamps to one slot per shard.
	c := NewCachedBounded(inner, 5, 1)
	cands := []netsim.Option{netsim.DirectOption()}
	for p := 0; p < 500; p++ {
		c.Choose(Call{Src: netsim.ASID(2 * p), Dst: netsim.ASID(2*p + 1), THours: 0}, cands)
	}
	if n := c.Len(); n > cacheShardCount {
		t.Errorf("cache holds %d pairs, bound is %d", n, cacheShardCount)
	}
	if c.Evictions() == 0 {
		t.Error("filling past the bound must evict")
	}
}

func TestCachedSweepDropsExpired(t *testing.T) {
	inner := &countingStrategy{}
	c := NewCached(inner, 2)
	cands := []netsim.Option{netsim.DirectOption()}
	c.Choose(Call{Src: 1, Dst: 2, THours: 0}, cands) // expires at t=2
	c.Choose(Call{Src: 3, Dst: 4, THours: 3}, cands) // expires at t=5
	if n := c.Len(); n != 2 {
		t.Fatalf("len = %d, want 2", n)
	}
	c.Sweep(4)
	if n := c.Len(); n != 1 {
		t.Errorf("len after sweep = %d, want 1", n)
	}
}

// transitEcho returns the transit route oriented src→dst: R1 is always
// the relay "near" the source. Any correctly oriented cache must
// preserve that property for both call directions.
type transitEcho struct{}

func (transitEcho) Name() string { return "transit-echo" }
func (transitEcho) Choose(c Call, _ []netsim.Option) netsim.Option {
	return netsim.TransitOption(netsim.RelayID(c.Src), netsim.RelayID(c.Dst))
}
func (transitEcho) Observe(Call, netsim.Option, quality.Metrics) {}

func TestCachedConcurrentOrientation(t *testing.T) {
	// Hammer one cache from both call directions across many pairs while
	// reports invalidate concurrently. Run under -race this doubles as the
	// memory-model check for the lock-free hit path; the assertion checks
	// that a decision is never served with the transit legs backwards.
	c := NewCached(transitEcho{}, 0.001) // tiny TTL: constant refill churn
	const (
		workers = 8
		pairs   = 64
		ops     = 4000
	)
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				p := (i + w) % pairs
				src, dst := netsim.ASID(2*p+1), netsim.ASID(2*p+2)
				if i%2 == 1 {
					src, dst = dst, src
				}
				call := Call{Src: src, Dst: dst, THours: float64(i) * 1e-5}
				opt := c.Choose(call, nil)
				if opt.Kind != netsim.Transit ||
					opt.R1 != netsim.RelayID(src) || opt.R2 != netsim.RelayID(dst) {
					errs <- "misoriented transit from cache"
					return
				}
				if i%7 == 0 {
					c.Observe(call, opt, quality.Metrics{RTTMs: 50})
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func BenchmarkCachedHit(b *testing.B) {
	c := NewCached(&countingStrategy{}, 1000)
	cands := []netsim.Option{netsim.DirectOption()}
	call := Call{Src: 1, Dst: 2, THours: 0}
	c.Choose(call, cands) // fill
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Choose(call, cands)
	}
}

func BenchmarkCachedHitReverse(b *testing.B) {
	c := NewCached(&fixedStrategy{opt: netsim.TransitOption(1, 2)}, 1000)
	cands := []netsim.Option{netsim.TransitOption(1, 2)}
	c.Choose(Call{Src: 1, Dst: 9, THours: 0}, cands) // fill
	call := Call{Src: 9, Dst: 1, THours: 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Choose(call, cands)
	}
}

type countingStrategy struct {
	onChoose func()
}

func (c *countingStrategy) Name() string { return "counting" }
func (c *countingStrategy) Choose(Call, []netsim.Option) netsim.Option {
	if c.onChoose != nil {
		c.onChoose()
	}
	return netsim.DirectOption()
}
func (c *countingStrategy) Observe(Call, netsim.Option, quality.Metrics) {}

type recordingObserver struct{ n int }

func (r *recordingObserver) Name() string                               { return "rec" }
func (r *recordingObserver) Choose(Call, []netsim.Option) netsim.Option { return netsim.DirectOption() }
func (r *recordingObserver) Observe(Call, netsim.Option, quality.Metrics) {
	r.n++
}
