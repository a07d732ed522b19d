package client

import (
	"sync"
	"sync/atomic"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/quality"
)

// ControlPlane is the slice of the controller API the Selector needs —
// satisfied by *controller.Client (and by fakes in tests).
type ControlPlane interface {
	Choose(src, dst int32, cands []netsim.Option) (netsim.Option, error)
	Report(src, dst int32, opt netsim.Option, m quality.Metrics) error
}

// RepairControlPlane is the optional extension a control plane implements
// when it can pick a loss-repair scheme alongside the path (the (path,
// repair) arms of the bandit). *controller.Client implements it; a plane
// that doesn't is served by the plain ControlPlane methods and calls run
// without repair.
type RepairControlPlane interface {
	ChooseWithRepair(src, dst int32, cands []netsim.Option, schemes []string) (netsim.Option, string, error)
	ReportRepair(src, dst int32, opt netsim.Option, scheme string, durSec float64, m quality.Metrics) error
}

// Selector wraps a control plane with graceful degradation: every fresh
// controller decision is cached per src→dst pair, and when the controller
// is unreachable (network fault, drain, crash) the Selector serves the
// cached decision instead of failing the call — falling back to the
// direct path if nothing usable is cached. Reports that cannot be
// delivered are counted and dropped (one lost sample, not a lost call).
type Selector struct {
	cp ControlPlane

	mu     sync.Mutex
	cached map[[2]int32]netsim.Option

	stale       atomic.Int64 // decisions served from cache or defaulted
	lostReports atomic.Int64 // reports the controller never received
	deadPaths   atomic.Int64 // mid-call path deaths reported upstream
}

// NewSelector builds a Selector over a control plane.
func NewSelector(cp ControlPlane) *Selector {
	return &Selector{cp: cp, cached: make(map[[2]int32]netsim.Option)}
}

// Stale returns how many decisions were served without the controller —
// the degraded-mode counter the chaos harness asserts on.
func (s *Selector) Stale() int64 { return s.stale.Load() }

// LostReports returns how many measurement reports failed delivery.
func (s *Selector) LostReports() int64 { return s.lostReports.Load() }

// DeadPathReports returns how many mid-call path deaths this selector has
// pushed to the controller.
func (s *Selector) DeadPathReports() int64 { return s.deadPaths.Load() }

// RegisterMetrics publishes the selector's degradation counters on a
// shared registry, labeled per client. GaugeFunc replace semantics make a
// restarted client's re-registration under the same label safe.
func (s *Selector) RegisterMetrics(reg *obs.Registry, client string) {
	reg.GaugeFunc(obs.L("via_client_stale_decisions", "client", client),
		func() float64 { return float64(s.Stale()) })
	reg.GaugeFunc(obs.L("via_client_lost_reports", "client", client),
		func() float64 { return float64(s.LostReports()) })
	reg.GaugeFunc(obs.L("via_client_dead_path_reports", "client", client),
		func() float64 { return float64(s.DeadPathReports()) })
}

// Choose asks the controller for a decision; on failure it degrades to
// the last cached decision for the pair (if it is still a candidate) or
// the direct path. fresh reports whether the controller answered.
func (s *Selector) Choose(src, dst int32, cands []netsim.Option) (opt netsim.Option, fresh bool) {
	opt, err := s.cp.Choose(src, dst, cands)
	key := [2]int32{src, dst}
	if err == nil {
		s.mu.Lock()
		s.cached[key] = opt
		s.mu.Unlock()
		return opt, true
	}
	s.stale.Add(1)
	s.mu.Lock()
	cachedOpt, ok := s.cached[key]
	s.mu.Unlock()
	if ok && (len(cands) == 0 || optionIn(cachedOpt, cands)) {
		return cachedOpt, false
	}
	return netsim.DirectOption(), false
}

// chooseWithRepair is Choose plus repair-scheme negotiation. When the
// control plane (or the controller behind it) predates repair, or the
// controller is unreachable, the scheme degrades to empty — the call runs
// with plain forwarding, it does not fail.
func (s *Selector) chooseWithRepair(src, dst int32, cands []netsim.Option, schemes []string) (opt netsim.Option, scheme string, fresh bool) {
	rcp, ok := s.cp.(RepairControlPlane)
	if !ok || len(schemes) == 0 {
		opt, fresh = s.Choose(src, dst, cands)
		return opt, "", fresh
	}
	opt, scheme, err := rcp.ChooseWithRepair(src, dst, cands, schemes)
	key := [2]int32{src, dst}
	if err == nil {
		s.mu.Lock()
		s.cached[key] = opt
		s.mu.Unlock()
		return opt, scheme, true
	}
	// Degraded mode: cached path if still a candidate, no repair scheme
	// (there is no controller to charge the redundancy budget to).
	s.stale.Add(1)
	s.mu.Lock()
	cachedOpt, cok := s.cached[key]
	s.mu.Unlock()
	if cok && (len(cands) == 0 || optionIn(cachedOpt, cands)) {
		return cachedOpt, "", false
	}
	return netsim.DirectOption(), "", false
}

// reportRepair pushes a measurement along with the scheme that ran and
// the call duration; like Report, failures are counted and absorbed. A
// plane without repair support gets the plain report (the scheme is then
// strategy-side unknown, which matches — it never chose one).
func (s *Selector) reportRepair(src, dst int32, opt netsim.Option, scheme string, durSec float64, m quality.Metrics) {
	rcp, ok := s.cp.(RepairControlPlane)
	if !ok || scheme == "" {
		s.Report(src, dst, opt, m)
		return
	}
	if err := rcp.ReportRepair(src, dst, opt, scheme, durSec, m); err != nil {
		s.lostReports.Add(1)
	}
}

// Report pushes a measurement; delivery failures are absorbed (counted),
// never surfaced to the call path.
func (s *Selector) Report(src, dst int32, opt netsim.Option, m quality.Metrics) {
	if err := s.cp.Report(src, dst, opt, m); err != nil {
		s.lostReports.Add(1)
	}
}

// ReportFailure tells the controller an option died mid-call, pushing the
// punitive DeadPathMetrics so prediction learns to avoid it (§3.1: only
// end-to-end feedback reveals a dead path). It also drops the option from
// the pair's cache — degraded mode must not keep resurrecting a path that
// just killed a call.
func (s *Selector) ReportFailure(src, dst int32, opt netsim.Option) {
	s.deadPaths.Add(1)
	key := [2]int32{src, dst}
	s.mu.Lock()
	if s.cached[key] == opt {
		delete(s.cached, key)
	}
	s.mu.Unlock()
	s.Report(src, dst, opt, DeadPathMetrics())
}

func optionIn(opt netsim.Option, cands []netsim.Option) bool {
	for _, c := range cands {
		if c == opt {
			return true
		}
	}
	return false
}
