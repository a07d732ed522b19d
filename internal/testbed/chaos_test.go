package testbed

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/controller"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// TestChaosCallsSurviveFaults is the end-to-end resilience scenario: a
// relay is killed mid-call and the controller partitions, yet every call
// completes (possibly degraded to direct), the degraded-mode and failover
// counters move, and — once the dead relay's heartbeats lapse — the
// directory and the next choose exclude it. Finally the relay is revived
// and carries traffic again.
func TestChaosCallsSurviveFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e is slow")
	}
	w := smallWorld()
	tb, err := Start(Config{
		Seed:       7,
		World:      w,
		ClientASes: []netsim.ASID{0, 30},
		RelayIDs:   []netsim.RelayID{0, 1, 2},
		RelayTTL:   400 * time.Millisecond,
		ControlRetry: controller.RetryPolicy{
			MaxAttempts: 2,
			BaseDelay:   20 * time.Millisecond,
			MaxDelay:    50 * time.Millisecond,
			Timeout:     time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	tb.StartHeartbeats(100 * time.Millisecond)

	caller := tb.Client(0)
	callee := tb.Client(30)
	sel := client.NewSelector(tb.Ctrl)
	sel.RegisterMetrics(tb.Metrics, "0")
	const victim = netsim.RelayID(0)
	liveCands := []netsim.Option{
		netsim.DirectOption(), netsim.BounceOption(1), netsim.BounceOption(2),
	}

	// Baseline: a controller-routed call on healthy paths, so the selector
	// has a cached decision to degrade to later.
	opt, fresh := sel.Choose(0, 30, liveCands)
	if !fresh {
		t.Fatalf("baseline choose was degraded (opt=%v)", opt)
	}
	base, err := caller.Agent.Call(client.CallSpec{
		Peer: callee.Agent.Addr(), Option: opt,
		Duration: 400 * time.Millisecond, PPS: 100,
	})
	if err != nil {
		t.Fatalf("baseline call over %v: %v", opt, err)
	}
	sel.Report(0, 30, opt, base)

	// Chaos: kill the victim relay 300ms into a call routed through it.
	// The real-time scheduler drives the plan against the live testbed.
	plan := faults.NewPlan(7).KillRelayAt(300*time.Millisecond, victim)
	sched := faults.NewScheduler(plan, tb)
	sched.SetMetrics(tb.Metrics)
	sched.Start()
	out, err := caller.Agent.CallResilient(client.CallSpec{
		Peer:     callee.Agent.Addr(),
		Option:   netsim.BounceOption(victim),
		Failover: []netsim.Option{netsim.DirectOption()},
		Duration: 1500 * time.Millisecond,
		PPS:      100,
	})
	sched.Wait()
	if errs := sched.Errors(); len(errs) > 0 {
		t.Fatalf("fault plan errors: %v", errs)
	}
	if err != nil {
		t.Fatalf("call through dying relay did not complete: %v", err)
	}
	if out.Used != netsim.DirectOption() {
		t.Errorf("call finished on %v, want direct after failover", out.Used)
	}
	if len(out.Failed) < 1 || caller.Agent.Failovers() < 1 {
		t.Errorf("failover counters: call=%d agent=%d, want >= 1",
			len(out.Failed), caller.Agent.Failovers())
	}
	// Teach the controller: the failed option gets the punitive report,
	// the surviving one its real metrics.
	for _, failed := range out.Failed {
		sel.ReportFailure(0, 30, failed)
	}
	sel.Report(0, 30, out.Used, out.Metrics)

	// Controller partition: decisions degrade to cache/direct, calls still
	// complete, reports are absorbed.
	if errs := faults.NewPlan(7).PartitionControllerAt(0).Apply(tb); len(errs) > 0 {
		t.Fatalf("partition: %v", errs)
	}
	opt, fresh = sel.Choose(0, 30, liveCands)
	if fresh {
		t.Error("choose under partition reported fresh")
	}
	if usesRelay(opt, victim) {
		t.Errorf("degraded decision uses the dead relay: %v", opt)
	}
	m, err := caller.Agent.Call(client.CallSpec{
		Peer: callee.Agent.Addr(), Option: opt,
		Duration: 400 * time.Millisecond, PPS: 100,
	})
	if err != nil {
		t.Fatalf("degraded call over %v: %v", opt, err)
	}
	sel.Report(0, 30, opt, m) // lost: controller still partitioned
	if errs := faults.NewPlan(7).HealControllerAt(0).Apply(tb); len(errs) > 0 {
		t.Fatalf("heal: %v", errs)
	}
	if sel.Stale() < 1 {
		t.Errorf("stale decisions = %d, want >= 1", sel.Stale())
	}
	if sel.LostReports() < 1 {
		t.Errorf("lost reports = %d, want >= 1", sel.LostReports())
	}

	// The dead relay's heartbeats stopped at the kill; once its TTL lapses
	// the directory must exclude it.
	deadline := time.Now().Add(3 * time.Second)
	for {
		dir, derr := tb.Ctrl.Relays()
		if derr == nil {
			if _, present := dir[victim]; !present {
				if len(dir) != 2 {
					t.Errorf("directory = %v, want the 2 live relays", dir)
				}
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("dead relay never aged out of the directory")
		}
		time.Sleep(50 * time.Millisecond)
	}
	// The next controller decision for the pair excludes the dead relay:
	// candidates come from the fresh directory, and the strategy has the
	// punitive report besides.
	choice, err := tb.Ctrl.Choose(0, 30, liveCands)
	if err != nil {
		t.Fatal(err)
	}
	if usesRelay(choice, victim) {
		t.Errorf("post-fault choose picked the dead relay: %v", choice)
	}

	// Health stayed green through it all, and panics stayed at zero.
	h, err := tb.Ctrl.Health()
	if err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Relays != 2 {
		t.Errorf("health = %+v, want OK with 2 live relays", h)
	}
	st, err := tb.Ctrl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Panics != 0 {
		t.Errorf("controller recovered %d panics during chaos", st.Panics)
	}

	// Revival: the relay comes back on its old address, re-registers, and
	// carries a call again.
	if errs := faults.NewPlan(7).ReviveRelayAt(0, victim).Apply(tb); len(errs) > 0 {
		t.Fatalf("revive: %v", errs)
	}
	deadline = time.Now().Add(3 * time.Second)
	for {
		dir, derr := tb.Ctrl.Relays()
		if derr == nil {
			if _, present := dir[victim]; present {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("revived relay never reappeared in the directory")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err := tb.refreshDirectories(); err != nil {
		t.Fatal(err)
	}
	m, err = caller.Agent.Call(client.CallSpec{
		Peer: callee.Agent.Addr(), Option: netsim.BounceOption(victim),
		Duration: 400 * time.Millisecond, PPS: 100,
	})
	if err != nil {
		t.Fatalf("call through revived relay: %v", err)
	}
	if m.RTTMs <= 0 {
		t.Error("revived relay carried no measurable media")
	}

	// The deployment-wide registry saw it all: the mid-call failover, the
	// scheduler's injected kill, and the dead-path reports the selector
	// forwarded. These are the counters CI archives as an artifact.
	snap := tb.Metrics.Snapshot()
	if v := snap[obs.L("via_client_failovers", "client", "0")]; v < 1 {
		t.Errorf("via_client_failovers{client=0} = %v, want >= 1", v)
	}
	if v := sumSeries(snap, "via_faults_injected_total"); v < 1 {
		t.Errorf("via_faults_injected_total = %v, want >= 1 (scheduler kill)", v)
	}
	if v := sumSeries(snap, "via_client_dead_path_reports"); v < 1 {
		t.Errorf("via_client_dead_path_reports = %v, want >= 1", v)
	}
	if v := snap["via_controller_panics_total"]; v != 0 {
		t.Errorf("via_controller_panics_total = %v, want 0", v)
	}
	writeMetricsArtifact(t, snap)
}

// sumSeries totals every series whose name is base or base{labels}.
func sumSeries(snap map[string]float64, base string) float64 {
	var sum float64
	for name, v := range snap {
		if name == base || strings.HasPrefix(name, base+"{") {
			sum += v
		}
	}
	return sum
}

// writeMetricsArtifact dumps the final snapshot as JSON to the path named
// by CHAOS_METRICS_OUT, when set — CI uploads it as a workflow artifact so
// a failed chaos run leaves its telemetry behind.
func writeMetricsArtifact(t *testing.T, snap map[string]float64) {
	t.Helper()
	path := os.Getenv("CHAOS_METRICS_OUT")
	if path == "" {
		return
	}
	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatalf("marshal metrics snapshot: %v", err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		t.Fatalf("write metrics snapshot: %v", err)
	}
	t.Logf("metrics snapshot (%d series) written to %s", len(snap), path)
}

// TestMetricsEndpointSpansSubsystems scrapes GET /metrics on a live
// deployment and checks the exposition covers the whole stack: at least a
// dozen distinct series, spanning controller, strategy, relay, client, and
// WAN namespaces, in Prometheus text format.
func TestMetricsEndpointSpansSubsystems(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed e2e is slow")
	}
	tb := startSmall(t, nil)
	caller := tb.Client(0)
	callee := tb.Client(10)

	// Drive one controller-routed call so request/decision counters move.
	cands := []netsim.Option{netsim.DirectOption(), netsim.BounceOption(0)}
	opt, err := tb.Ctrl.Choose(0, 10, cands)
	if err != nil {
		t.Fatal(err)
	}
	m, err := caller.Agent.Call(client.CallSpec{
		Peer: callee.Agent.Addr(), Option: opt,
		Duration: 300 * time.Millisecond, PPS: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Ctrl.Report(0, 10, opt, m); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(tb.CtrlURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	series := make(map[string]bool)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed exposition line: %q", line)
		}
		series[name] = true
	}
	if len(series) < 12 {
		t.Errorf("/metrics exposed %d series, want >= 12:\n%s", len(series), body)
	}
	for _, prefix := range []string{
		"via_controller_", "via_decision_total", "via_relay_", "via_client_", "via_wan_",
	} {
		found := false
		for name := range series {
			if strings.HasPrefix(name, prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("/metrics has no series with prefix %q", prefix)
		}
	}
}

// TestBlackholeSegmentViaPlan checks the packet-level fault path end to
// end: blackholing the caller↔relay segment kills the relayed path while
// the relay process stays up, and healing restores it.
func TestBlackholeSegmentViaPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed e2e is slow")
	}
	tb := startSmall(t, nil)
	caller := tb.Client(0)
	callee := tb.Client(30)
	rid := tb.Relays[0].ID()

	spec := client.CallSpec{
		Peer: callee.Agent.Addr(), Option: netsim.BounceOption(rid),
		Duration: 300 * time.Millisecond, PPS: 100,
	}
	if _, err := caller.Agent.Call(spec); err != nil {
		t.Fatalf("pre-fault call: %v", err)
	}

	seg := faults.NewPlan(1).BlackholeAt(0, faults.ClientEnd(0), faults.RelayEnd(rid))
	if errs := seg.Apply(tb); len(errs) > 0 {
		t.Fatal(errs)
	}
	if _, err := caller.Agent.Call(spec); err != client.ErrNoFeedback {
		t.Errorf("blackholed segment: err = %v, want ErrNoFeedback", err)
	}

	heal := faults.NewPlan(1).HealAt(0, faults.ClientEnd(0), faults.RelayEnd(rid))
	if errs := heal.Apply(tb); len(errs) > 0 {
		t.Fatal(errs)
	}
	if _, err := caller.Agent.Call(spec); err != nil {
		t.Errorf("healed segment: %v", err)
	}
}

// TestKillRelayValidation covers the fault target's error paths.
func TestKillRelayValidation(t *testing.T) {
	tb := startSmall(t, nil)
	if err := tb.KillRelay(99); err == nil {
		t.Error("killing an unknown relay accepted")
	}
	if err := tb.ReviveRelay(0); err == nil {
		t.Error("reviving a live relay accepted")
	}
	if err := tb.KillRelay(0); err != nil {
		t.Fatal(err)
	}
	if tb.RelayAlive(0) {
		t.Error("killed relay reported alive")
	}
	if err := tb.KillRelay(0); err == nil {
		t.Error("double kill accepted")
	}
	if err := tb.ReviveRelay(0); err != nil {
		t.Fatalf("revive: %v", err)
	}
	if !tb.RelayAlive(0) {
		t.Error("revived relay reported dead")
	}
}

// usesRelay reports whether o routes through relay id.
func usesRelay(o netsim.Option, id netsim.RelayID) bool {
	return o.Kind != netsim.Direct && (o.R1 == id || o.Kind == netsim.Transit && o.R2 == id)
}

// refreshDirectories re-fetches the relay directory over the pristine
// admin path and installs it on every agent — the periodic directory pull
// production clients would do.
func (tb *Testbed) refreshDirectories() error {
	dir, err := tb.adminCtrl.Relays()
	if err != nil {
		return err
	}
	for _, c := range tb.Clients {
		if err := c.Agent.SetRelays(dir); err != nil {
			return err
		}
	}
	return nil
}
