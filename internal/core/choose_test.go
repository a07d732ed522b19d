package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/netsim"
	"repro/internal/quality"
	"repro/internal/stats"
)

// The call floor of the paper's §7: a zipf-skewed population of AS pairs
// (a few hot pairs carry most calls) asking an uncached Via for a relay,
// as the served controller does, with one report per observeEvery
// decisions moving the state it decides from.
const (
	floorPairs    = 4096
	floorRelays   = 8   // bounce candidates per pair, beside direct and one transit
	floorZipfS    = 1.1 // pair-popularity skew
	observeEvery  = 200
	floorWarmup   = 200_000
	floorWarmHrs  = 49.0 // two 24 h refresh epochs: the predictor and top-k lists are built
	floorCallHour = floorWarmHrs + 0.1
)

// callFloor is the read-only workload: per-pair candidates and base RTT,
// a zipf-drawn pair index table the callers walk (a power of two, so a
// walk wraps with a mask), and each pair's call in both directions, since
// the canonical-pair flip is part of the hot path.
type callFloor struct {
	cands   [][]netsim.Option
	rtts    []float64
	pairIdx []int32
	calls   []Call // calls[2p] forward, calls[2p+1] reversed
}

func newCallFloor() *callFloor {
	w := &callFloor{
		cands: make([][]netsim.Option, floorPairs),
		rtts:  make([]float64, floorPairs),
		calls: make([]Call, 2*floorPairs),
	}
	rng := stats.NewRNG(1).Split("call-floor")
	for i := range w.cands {
		base := netsim.RelayID(i % 512)
		cands := []netsim.Option{netsim.DirectOption()}
		for r := 0; r < floorRelays; r++ {
			cands = append(cands, netsim.BounceOption(base+netsim.RelayID(r)))
		}
		w.cands[i] = append(cands, netsim.TransitOption(base, base+1))
		w.rtts[i] = 80 + 240*rng.Float64()
		c := Call{Src: netsim.ASID(2 * i), Dst: netsim.ASID(2*i + 1), THours: floorCallHour, DurationSec: 180}
		w.calls[2*i] = c
		c.Src, c.Dst = c.Dst, c.Src
		w.calls[2*i+1] = c
	}
	w.pairIdx = make([]int32, 1<<16)
	z := stats.NewZipf(rng.Split("zipf"), floorPairs, floorZipfS)
	for i := range w.pairIdx {
		w.pairIdx[i] = int32(z.Sample())
	}
	return w
}

// metricsFor is a report for a pair's option that draws no randomness,
// so concurrent callers share no RNG: relayed options shave a fixed
// fraction off the pair's base RTT.
func (w *callFloor) metricsFor(p int32, opt netsim.Option) quality.Metrics {
	rtt := w.rtts[p]
	if opt.IsRelayed() {
		rtt *= 0.7 + 0.01*float64(opt.R1%16)
	}
	return quality.Metrics{RTTMs: rtt, LossRate: 0.005, JitterMs: 8}
}

// step makes the k-th decision of a walk that starts at off, and reports
// on one in observeEvery.
func (w *callFloor) step(v *Via, k, off int) {
	p := w.pairIdx[(k+off)&(len(w.pairIdx)-1)]
	c := w.calls[int(p)<<1|k&1]
	opt := v.Choose(c, w.cands[p])
	if k%observeEvery == 0 {
		v.Observe(c, opt, w.metricsFor(p, opt))
	}
}

// warmVia trains a Via at the paper's operating point over the whole
// population (every pair a few times, then the zipf mix), with time
// running up to floorWarmHrs. Every call the workload then makes is at
// floorCallHour, inside the last epoch warm-up reached, so a measured
// Choose never rebuilds the predictor.
func warmVia(tb testing.TB, w *callFloor) *Via {
	tb.Helper()
	vc := DefaultViaConfig(quality.RTT)
	vc.Seed = 101
	v := NewVia(vc, nil)
	for k := 0; k < floorWarmup; k++ {
		p := w.pairIdx[k&(len(w.pairIdx)-1)]
		if k < 4*floorPairs {
			p = int32(k % floorPairs)
		}
		c := w.calls[2*p]
		c.THours = floorWarmHrs * float64(k) / floorWarmup
		opt := v.Choose(c, w.cands[p])
		v.Observe(c, opt, w.metricsFor(p, opt))
	}
	if got, want := v.epoch(), v.epochOf(floorCallHour); got != want {
		tb.Fatalf("warm-up ended in epoch %d, the workload calls in %d: a measured Choose would rebuild the predictor", got, want)
	}
	return v
}

func (v *Via) epoch() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.curEpoch
}

// BenchmarkViaChoose times one steady-state uncached Choose on the call
// floor, from as many callers as -cpu sets; allocs/op includes the
// amortised cost of one Observe per observeEvery decisions.
func BenchmarkViaChoose(b *testing.B) {
	w := newCallFloor()
	v := warmVia(b, w)
	epoch := v.epoch()
	var callers atomic.Int32
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Callers start spread over the table so they do not walk in step.
		off := int(callers.Add(1)) * 7919
		for k := 0; pb.Next(); k++ {
			w.step(v, k, off)
		}
	})
	b.StopTimer()
	if got := v.epoch(); got != epoch {
		b.Fatalf("epoch moved %d -> %d inside the timed loop: the figure includes a predictor rebuild", epoch, got)
	}
}

// TestViaChooseSteadyStateAllocs holds the warmed call floor to at most
// 0.05 allocations per Choose, reports included: a Choose does no
// per-call heap allocation once the predictor and a pair's bandit exist.
func TestViaChooseSteadyStateAllocs(t *testing.T) {
	w := newCallFloor()
	v := warmVia(t, w)
	k := 0
	perRun := testing.AllocsPerRun(1000, func() {
		for end := k + observeEvery; k < end; k++ {
			w.step(v, k, 0)
		}
	})
	if got := perRun / observeEvery; got > 0.05 {
		t.Fatalf("steady-state Choose makes %.3f allocs/op (%.0f per %d decisions and one report), want <= 0.05", got, perRun, observeEvery)
	}
}
