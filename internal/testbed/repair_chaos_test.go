package testbed

import (
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/rtp"
	"repro/internal/wan"
)

// TestChaosBurstLossRepairedEndToEnd is the loss-repair e2e: a fault plan
// injects Gilbert-Elliott burst loss on the caller↔callee segment, and a
// NACK-repaired call must complete with residual loss strictly below the
// no-repair baseline on the same impaired segment. RED and FEC calls run
// the other data planes, and every repair counter the agents export must
// move in the deployment-wide registry.
func TestChaosBurstLossRepairedEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e is slow")
	}
	tb := startSmall(t, nil)
	caller := tb.Client(0)
	callee := tb.Client(30)

	// Pin the media segment to a low-RTT profile (the world model deals
	// this AS pair an ~800ms direct path, which no retransmit scheme could
	// repair inside playout); the fault plan then layers burst loss on top
	// of exactly these params.
	lowRTT := wan.LinkParams{DelayMs: 20, JitterMs: 2}
	caller.Shaper.SetLink(callee.Agent.Addr().String(), lowRTT)
	callee.Shaper.SetLink(caller.Agent.Addr().String(), lowRTT)

	// Burst loss on the media segment, both directions, from t=0.
	plan := faults.NewPlan(9).BurstLossAt(0,
		faults.ClientEnd(0), faults.ClientEnd(30), 0.25, 3)
	if errs := plan.Apply(tb); len(errs) > 0 {
		t.Fatalf("burst-loss plan: %v", errs)
	}

	call := func(scheme rtp.Scheme, dur time.Duration) client.CallOutcome {
		t.Helper()
		out, err := caller.Agent.CallResilient(client.CallSpec{
			Peer:     callee.Agent.Addr(),
			Option:   netsim.DirectOption(),
			Duration: dur,
			PPS:      100,
			Repair:   scheme,
		})
		if err != nil {
			t.Fatalf("call with repair=%v under burst loss: %v", scheme, err)
		}
		return out
	}

	// Headline: NACK-repaired residual loss beats the no-repair baseline
	// under the same fault. Loopback RTT is tiny, so retransmits land well
	// inside the playout deadline.
	base := call(rtp.SchemeNone, 1200*time.Millisecond)
	rep := call(rtp.SchemeNACK, 1200*time.Millisecond)
	if base.Metrics.LossRate < 0.03 {
		t.Fatalf("burst loss not biting: baseline loss %.3f", base.Metrics.LossRate)
	}
	if rep.Metrics.LossRate >= base.Metrics.LossRate {
		t.Errorf("NACK residual loss %.3f, no-repair baseline %.3f — repair did not help",
			rep.Metrics.LossRate, base.Metrics.LossRate)
	}

	// Exercise the redundancy data planes on the same impaired segment.
	call(rtp.SchemeRED, 800*time.Millisecond)
	call(rtp.SchemeFEC(4), 800*time.Millisecond)

	// Heavier loss: enough gaps never repair inside the retry cap and
	// playout deadline that the deadline-miss counter must move.
	if errs := faults.NewPlan(9).
		BurstLossAt(0, faults.ClientEnd(0), faults.ClientEnd(30), 0.55, 3).
		Apply(tb); len(errs) > 0 {
		t.Fatalf("heavy burst-loss plan: %v", errs)
	}
	call(rtp.SchemeNACK, 1200*time.Millisecond)

	// The deployment registry saw every repair subsystem: requests from
	// the callee, retransmits served by the caller, parity recoveries,
	// absorbed RED duplicates, and abandoned gaps.
	snap := tb.Metrics.Snapshot()
	for _, name := range []string{
		"via_client_nacks_sent",
		"via_client_nacks_honored",
		"via_client_fec_recoveries",
		"via_client_red_duplicates",
		"via_client_rtx_deadline_misses",
	} {
		if v := sumSeries(snap, name); v < 1 {
			t.Errorf("%s = %v, want >= 1", name, v)
		}
	}
	writeMetricsArtifact(t, snap)
}
