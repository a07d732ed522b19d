package testbed

import (
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/rtp"
)

// TestChurnChaosCallsSurviveMobility is the mid-call-mobility gate
// (DESIGN.md §17): two concurrent NACK-repaired calls — one where the
// churning client is the caller, one where it is the callee — ride out
// six NAT rebinds and a relay maintenance drain with zero dropped calls,
// and the mobility counters proving the machinery (path validation,
// return-path re-pinning, drain nudges) actually fired.
func TestChurnChaosCallsSurviveMobility(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e is slow")
	}
	// AS pair 3↔33 has usable paths through both deployed relays (RTT well
	// inside the NACK playout deadline), so repair has room to work and the
	// loss the gate measures is the mobility machinery's, not the world's.
	w := smallWorld()
	tb, err := Start(Config{
		Seed:       11,
		World:      w,
		ClientASes: []netsim.ASID{3, 33},
		RelayIDs:   []netsim.RelayID{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	tb.StartHeartbeats(100 * time.Millisecond)

	mobile := tb.Client(3) // rebinds six times mid-call
	fixed := tb.Client(33)
	const drained = netsim.RelayID(0)
	const backup = netsim.RelayID(1)

	// The relay drains early (both calls must migrate in place to relay 1),
	// then five churn waves and one final rebind hammer the migrated path.
	// Drain precedes churn deliberately: a caller re-routes a call using the
	// callee address it learned at setup, and the address remap for a moved
	// callee lives on the relay that validated the move — so an operator
	// drains relays before churning clients, never the other way around.
	plan := faults.NewPlan(11).
		DrainRelayAt(600*time.Millisecond, drained).
		ChurnEvery(1000*time.Millisecond, 400*time.Millisecond, 5, 3).
		RebindClientAt(3100*time.Millisecond, 3)
	sched := faults.NewScheduler(plan, tb)
	sched.SetMetrics(tb.Metrics)

	spec := func(peer *ClientNode) client.CallSpec {
		return client.CallSpec{
			Peer:     peer.Agent.Addr(),
			Option:   netsim.BounceOption(drained),
			Failover: []netsim.Option{netsim.BounceOption(backup)},
			Duration: 4 * time.Second,
			PPS:      50,
			Repair:   rtp.SchemeNACK,
			// Sized for this world's relay RTT plus the path-validation gap a
			// rebind opens: reports pause while the relay re-pins the return
			// path, and that pause must read as mobility, not path death.
			FailoverAfter: 1500 * time.Millisecond,
		}
	}
	type result struct {
		out client.CallOutcome
		err error
	}
	reverse := make(chan result, 1)
	sched.Start()
	go func() {
		out, rerr := fixed.Agent.CallResilient(spec(mobile))
		reverse <- result{out, rerr}
	}()
	out, err := mobile.Agent.CallResilient(spec(fixed))
	rev := <-reverse
	sched.Wait()
	if errs := sched.Errors(); len(errs) > 0 {
		t.Fatalf("fault plan errors: %v", errs)
	}

	// Zero dropped calls: both completed, neither recorded a failed path
	// (the drain migration is not punitive) and neither counted a
	// failover — every disruption was absorbed by the mobility layer.
	if err != nil {
		t.Fatalf("churning caller's call died: %v", err)
	}
	if rev.err != nil {
		t.Fatalf("call toward the churning client died: %v", rev.err)
	}
	for name, o := range map[string]client.CallOutcome{"forward": out, "reverse": rev.out} {
		if len(o.Failed) != 0 {
			t.Errorf("%s call recorded failed paths %v, want none", name, o.Failed)
		}
		if o.Used != netsim.BounceOption(backup) {
			t.Errorf("%s call finished on %v, want migration to bounce(%d)", name, o.Used, backup)
		}
		if o.Metrics.RTTMs <= 0 {
			t.Errorf("%s call measured no RTT", name)
		}
		if o.Metrics.LossRate > 0.20 {
			t.Errorf("%s call loss = %v, want < 0.20 across 6 rebinds", name, o.Metrics.LossRate)
		}
	}
	if got := mobile.Agent.Failovers() + fixed.Agent.Failovers(); got != 0 {
		t.Errorf("failovers = %d, want 0 (mobility must not look like path death)", got)
	}

	// The mobility machinery fired: six rebinds, each re-validated by a
	// relay challenge and answered from the new address, re-pinning the
	// return path; the drain nudged both callers off the retiring relay.
	if got := mobile.Agent.Rebinds(); got != 6 {
		t.Errorf("rebinds = %d, want 6", got)
	}
	if got := mobile.Agent.PathResponses(); got < 6 {
		t.Errorf("path responses = %d, want >= 6", got)
	}
	var migrations int64
	for _, r := range tb.Relays {
		migrations += r.Migrations()
	}
	if migrations < 6 {
		t.Errorf("relay migrations = %d, want >= 6 (return paths never re-pinned)", migrations)
	}
	if got := mobile.Agent.DrainMigrations() + fixed.Agent.DrainMigrations(); got < 2 {
		t.Errorf("drain migrations = %d, want >= 2 (both calls off the draining relay)", got)
	}

	// The draining relay is out of the directory (candidate enumeration
	// excludes it) but still registered enough to serve stragglers; a
	// fresh call placed during the drain lands on the backup.
	dir, err := tb.Ctrl.Relays()
	if err != nil {
		t.Fatal(err)
	}
	if _, present := dir[drained]; present {
		t.Errorf("directory still lists draining relay %d", drained)
	}
	if _, present := dir[backup]; !present {
		t.Errorf("directory lost healthy relay %d", backup)
	}
	if m, err := mobile.Agent.Call(client.CallSpec{
		Peer: fixed.Agent.Addr(), Option: netsim.BounceOption(backup),
		Duration: 300 * time.Millisecond, PPS: 100,
	}); err != nil {
		t.Fatalf("fresh call during drain: %v", err)
	} else if m.RTTMs <= 0 {
		t.Error("fresh call during drain measured no RTT")
	}

	// Drain is reversible: lift it and the relay re-enters the directory.
	if errs := faults.NewPlan(11).UndrainRelayAt(0, drained).Apply(tb); len(errs) > 0 {
		t.Fatalf("undrain: %v", errs)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		dir, derr := tb.Ctrl.Relays()
		if derr == nil {
			if _, present := dir[drained]; present {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("undrained relay never returned to the directory")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Deployment-wide telemetry saw it all; CI archives this snapshot.
	snap := tb.Metrics.Snapshot()
	if v := snap[obs.L("via_client_rebinds_total", "client", "3")]; v < 6 {
		t.Errorf("via_client_rebinds_total{client=3} = %v, want >= 6", v)
	}
	if v := sumSeries(snap, "via_session_migrations_total"); v < 6 {
		t.Errorf("via_session_migrations_total = %v, want >= 6", v)
	}
	if v := sumSeries(snap, "via_path_validation_challenges_total"); v < 6 {
		t.Errorf("via_path_validation_challenges_total = %v, want >= 6", v)
	}
	if v := sumSeries(snap, "via_path_validation_successes_total"); v < 6 {
		t.Errorf("via_path_validation_successes_total = %v, want >= 6", v)
	}
	if v := sumSeries(snap, "via_relay_drain_nudges_total"); v < 1 {
		t.Errorf("via_relay_drain_nudges_total = %v, want >= 1", v)
	}
	if v := sumSeries(snap, "via_faults_injected_total"); v < 7 {
		t.Errorf("via_faults_injected_total = %v, want >= 7 (5 churn + drain + rebind)", v)
	}
	writeMetricsArtifact(t, snap)
}
