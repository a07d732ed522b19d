package client

import (
	"testing"
	"time"

	"repro/internal/netsim"
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
