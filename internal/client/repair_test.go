package client

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/rtp"
	"repro/internal/transport"
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

// TestParityFirstSessionGetsCalleeState: a session whose first frame is
// FEC parity gets the same callee-side state a media frame creates. It
// counts against maxIncoming, and a token-bearing call mints its callee
// token, so the receiver reports and NACKs it sends later carry one.
func TestParityFirstSessionGetsCalleeState(t *testing.T) {
	a := newAgent(t, 1)
	scheme := rtp.SchemeFEC(4)
	parity := (&rtp.FECPacket{K: 4, Payload: make([]byte, 160)}).Marshal(nil)
	fec := func(session uint64, token transport.Token) {
		f := transport.Frame{Session: session, Kind: transport.KindFEC, Repair: scheme.Byte(), Token: token, Payload: parity}
		a.handleFEC(&f)
	}
	for s := uint64(1); s <= maxIncoming+10; s++ {
		fec(s, transport.Token{})
	}
	if got := len(a.incomingSessions()); got != maxIncoming {
		t.Errorf("parity-only sessions left %d entries, want the cap %d", got, maxIncoming)
	}

	const tokened = maxIncoming + 100
	fec(tokened, transport.Token{1})
	a.mu.Lock()
	ic := a.incoming[tokened]
	a.mu.Unlock()
	if ic == nil {
		t.Fatal("parity-first session holds no callee state")
	}
	ic.mu.Lock()
	defer ic.mu.Unlock()
	if ic.token.IsZero() {
		t.Error("token-bearing session whose parity arrived first has no callee token")
	}
	if ic.fecDec == nil {
		t.Error("parity-first session did not set up its FEC decoder")
	}
}
