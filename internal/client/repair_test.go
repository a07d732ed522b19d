package client

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/quality"
	"repro/internal/rtp"
	"repro/internal/wan"
)

// repairCall places one call with the given scheme over the caller's
// shaped link and returns the outcome.
func repairCall(t *testing.T, caller *Agent, callee *Agent, scheme rtp.Scheme, dur time.Duration) CallOutcome {
	t.Helper()
	out, err := caller.CallResilient(CallSpec{
		Peer:     callee.Addr(),
		Option:   netsim.DirectOption(),
		Duration: dur,
		PPS:      100,
		Repair:   scheme,
	})
	if err != nil {
		t.Fatalf("repair call (%v): %v", scheme, err)
	}
	return out
}

func TestNACKRepairReducesResidualLoss(t *testing.T) {
	caller, sh := newShapedAgent(t, 101)
	callee := newAgent(t, 102)
	// Low RTT, random loss: NACK's home turf — retransmits land well
	// inside the playout deadline.
	sh.SetLink(callee.Addr().String(), wan.LinkParams{LossRate: 0.15})

	base := repairCall(t, caller, callee, rtp.SchemeNone, 900*time.Millisecond)
	rep := repairCall(t, caller, callee, rtp.SchemeNACK, 900*time.Millisecond)

	if caller.NacksHonored() == 0 || callee.NacksSent() == 0 {
		t.Fatalf("nack machinery idle: sent=%d honored=%d",
			callee.NacksSent(), caller.NacksHonored())
	}
	if rep.Metrics.LossRate >= base.Metrics.LossRate {
		t.Errorf("NACK residual loss %.3f, no-repair %.3f — repair did not help",
			rep.Metrics.LossRate, base.Metrics.LossRate)
	}
}

func TestREDRepairAbsorbsDuplicates(t *testing.T) {
	caller, sh := newShapedAgent(t, 103)
	callee := newAgent(t, 104)
	sh.SetLink(callee.Addr().String(), wan.LinkParams{LossRate: 0.2})

	base := repairCall(t, caller, callee, rtp.SchemeNone, 800*time.Millisecond)
	rep := repairCall(t, caller, callee, rtp.SchemeRED, 800*time.Millisecond)

	if callee.REDDuplicates() == 0 {
		t.Error("no RED duplicates absorbed — second copies not flowing")
	}
	// Independent 20% loss: duplication should collapse residual toward 4%.
	if rep.Metrics.LossRate >= base.Metrics.LossRate {
		t.Errorf("RED residual loss %.3f, no-repair %.3f", rep.Metrics.LossRate, base.Metrics.LossRate)
	}
}

func TestFECRepairRecoversSingleLosses(t *testing.T) {
	caller, sh := newShapedAgent(t, 105)
	callee := newAgent(t, 106)
	sh.SetLink(callee.Addr().String(), wan.LinkParams{LossRate: 0.1})

	rep := repairCall(t, caller, callee, rtp.SchemeFEC(4), 900*time.Millisecond)

	if callee.FECRecovered() == 0 {
		t.Error("no FEC recoveries — parity frames not decoding")
	}
	// 10% independent loss in groups of 4: most groups lose at most one
	// packet, so residual should land well under the raw rate.
	if rep.Metrics.LossRate > 0.08 {
		t.Errorf("FEC residual loss %.3f, want < raw 0.10 with margin", rep.Metrics.LossRate)
	}
}

func TestRtxDeadlineMissesCounted(t *testing.T) {
	caller, sh := newShapedAgent(t, 111)
	callee := newAgent(t, 112)
	// Heavy loss: many gaps never repair inside the retry cap/deadline.
	sh.SetLink(callee.Addr().String(), wan.LinkParams{LossRate: 0.5})

	repairCall(t, caller, callee, rtp.SchemeNACK, 1200*time.Millisecond)
	if callee.RtxDeadlineMisses() == 0 {
		t.Error("50% loss produced no expired NACK entries")
	}
}

// fakeRepairCP is a scriptable RepairControlPlane for Selector tests.
type fakeRepairCP struct {
	fakeControl // embeds plain Choose/Report and the fail toggle
	scheme      string
	gotDur      float64
}

func (f *fakeRepairCP) ChooseWithRepair(src, dst int32, cands []netsim.Option, schemes []string) (netsim.Option, string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail {
		return netsim.DirectOption(), "", errCtrlDown
	}
	return cands[0], f.scheme, nil
}

func (f *fakeRepairCP) ReportRepair(src, dst int32, opt netsim.Option, scheme string, durSec float64, m quality.Metrics) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail {
		return errCtrlDown
	}
	f.gotDur = durSec
	return nil
}

func TestSelectorChooseWithRepairPassesScheme(t *testing.T) {
	cp := &fakeRepairCP{scheme: "nack"}
	s := NewSelector(cp)
	cands := []netsim.Option{netsim.BounceOption(1)}
	opt, scheme, fresh := s.chooseWithRepair(1, 2, cands, []string{"none", "nack"})
	if !fresh || scheme != "nack" || opt != cands[0] {
		t.Errorf("got (%v, %q, fresh=%v)", opt, scheme, fresh)
	}
	s.reportRepair(1, 2, opt, scheme, 42, quality.Metrics{RTTMs: 10})
	if cp.gotDur != 42 {
		t.Errorf("duration not forwarded: %v", cp.gotDur)
	}
}

func TestSelectorChooseWithRepairDegradesScheme(t *testing.T) {
	cp := &fakeRepairCP{scheme: "red"}
	s := NewSelector(cp)
	cands := []netsim.Option{netsim.BounceOption(1)}
	if _, _, fresh := s.chooseWithRepair(1, 2, cands, []string{"red"}); !fresh {
		t.Fatal("warmup choose not fresh")
	}
	cp.setFail(true)
	opt, scheme, fresh := s.chooseWithRepair(1, 2, cands, []string{"red"})
	if fresh || scheme != "" {
		t.Errorf("degraded choose returned (%q, fresh=%v), want no scheme", scheme, fresh)
	}
	if opt != cands[0] {
		t.Errorf("degraded choose lost the cached path: %v", opt)
	}
	// Reports fall back to counting, never error.
	s.reportRepair(1, 2, opt, "red", 10, quality.Metrics{})
	if s.LostReports() != 1 {
		t.Errorf("lost reports = %d, want 1", s.LostReports())
	}
}

// A plain ControlPlane (no repair methods) still works through the
// repair-aware entry points.
func TestSelectorChooseWithRepairPlainPlane(t *testing.T) {
	cp := &fakeControl{answer: netsim.BounceOption(2)}
	s := NewSelector(cp)
	opt, scheme, fresh := s.chooseWithRepair(1, 2, []netsim.Option{netsim.BounceOption(2)}, []string{"nack"})
	if !fresh || scheme != "" {
		t.Errorf("plain plane gave (%q, fresh=%v), want empty scheme", scheme, fresh)
	}
	s.reportRepair(1, 2, opt, "", 5, quality.Metrics{})
	if s.LostReports() != 0 {
		t.Errorf("plain report lost: %d", s.LostReports())
	}
}
