package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/rtp"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// ChaosConfig sizes the fault-injection benchmark: a loopback deployment
// placing controller-routed calls while a seeded fault plan kills a relay
// mid-run, flaps the controller, and revives the relay near the end.
type ChaosConfig struct {
	Seed           uint64
	NumClients     int
	NumRelays      int
	Calls          int
	CallDuration   time.Duration
	PPS            int
	RelayTTL       time.Duration
	HeartbeatEvery time.Duration
	// Metrics optionally supplies the registry the whole deployment
	// (strategy, controller, relays, clients, fault scheduler) publishes
	// into, so the caller can snapshot it after the run. Nil: a private
	// registry is created and discarded with the testbed.
	Metrics *obs.Registry
	// WALDir non-empty runs the controller durably (WAL + snapshots in
	// this directory) and extends the fault plan with an abrupt crash and
	// a WAL-recovery restart of the controller mid-run.
	WALDir string
	// Repair places every call with this loss-repair scheme ("nack",
	// "red", "fec-K"; "" or "none" = plain forwarding) and layers
	// Gilbert-Elliott burst loss on every media segment so the repair
	// plane has losses to mend. The report gains the repair counters.
	Repair string
}

// DefaultChaosConfig is a one-minute-class chaos run.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		Seed:           17,
		NumClients:     6,
		NumRelays:      5,
		Calls:          40,
		CallDuration:   500 * time.Millisecond,
		PPS:            100,
		RelayTTL:       500 * time.Millisecond,
		HeartbeatEvery: 100 * time.Millisecond,
	}
}

// QuickChaosConfig is smoke-test scale.
func QuickChaosConfig() ChaosConfig {
	return ChaosConfig{
		Seed:           17,
		NumClients:     3,
		NumRelays:      3,
		Calls:          10,
		CallDuration:   300 * time.Millisecond,
		PPS:            100,
		RelayTTL:       400 * time.Millisecond,
		HeartbeatEvery: 100 * time.Millisecond,
	}
}

// Chaos runs the resilience benchmark: every call must complete (possibly
// degraded to the direct path) while the fault plan runs, and the report
// shows how often the system leaned on each resilience mechanism —
// mid-call failover, cached decisions, retries, heartbeat-driven
// directory expiry.
//
//vialint:ignore dettaint live-by-design: Chaos drives a real loopback deployment (testbed.Start) whose controller legitimately runs on the wall clock
func Chaos(cfg ChaosConfig) ([]*stats.Table, error) {
	scheme, err := rtp.ParseScheme(cfg.Repair)
	if err != nil {
		return nil, err
	}
	wcfg := netsim.DefaultConfig(cfg.Seed)
	wcfg.NumASes = 60
	wcfg.NumRelays = cfg.NumRelays
	wcfg.BounceCandidates = 3
	wcfg.TransitFan = 2
	w := netsim.New(wcfg)

	var clients []netsim.ASID
	for i := 0; len(clients) < cfg.NumClients && i < w.NumASes(); i += w.NumASes() / cfg.NumClients {
		clients = append(clients, netsim.ASID(i))
	}
	var relays []netsim.RelayID
	for i := 0; i < cfg.NumRelays; i++ {
		relays = append(relays, netsim.RelayID(i))
	}

	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	viaCfg := core.DefaultViaConfig(quality.RTT)
	viaCfg.Seed = cfg.Seed
	viaCfg.Metrics = reg
	tbCfg := testbed.Config{
		Seed:       cfg.Seed,
		World:      w,
		ClientASes: clients,
		RelayIDs:   relays,
		Strategy:   core.NewVia(viaCfg, nil),
		TimeScale:  7200,
		RelayTTL:   cfg.RelayTTL,
		Metrics:    reg,
	}
	if cfg.WALDir != "" {
		tbCfg.WALDir = cfg.WALDir
		// Restart must rebuild the strategy from scratch and recover its
		// state purely from the WAL — a fresh instance per boot, exactly
		// like a real process restart.
		tbCfg.NewStrategy = func() core.Strategy { return core.NewVia(viaCfg, nil) }
	}
	tb, err := testbed.Start(tbCfg)
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	tb.StartHeartbeats(cfg.HeartbeatEvery)
	sel := client.NewSelector(tb.Ctrl)
	sel.RegisterMetrics(reg, "chaos")

	// The fault plan, scheduled against the run's rough wall-clock length:
	// kill a relay a quarter in, flap the controller twice around the
	// middle, revive the relay at three quarters.
	victim := relays[0]
	est := time.Duration(cfg.Calls) * (cfg.CallDuration + 200*time.Millisecond)
	plan := faults.NewPlan(cfg.Seed).
		KillRelayAt(est/4, victim).
		FlapController(est/2, est/8, est/16, 2).
		ReviveRelayAt(3*est/4, victim)
	if cfg.WALDir != "" {
		// Durable mode adds the harsher controller lifecycle: an abrupt
		// crash (connection resets, no drain) followed by a cold restart
		// that must recover every decision from the WAL.
		plan.CrashControllerAt(3 * est / 8).RestartControllerAt(5 * est / 8)
	}
	if scheme != rtp.SchemeNone {
		// Calls pair adjacent clients (caller i, callee i+1), so impairing
		// every adjacent media segment puts burst loss on every call.
		for i, as := range clients {
			plan.BurstLossAt(0, faults.ClientEnd(as),
				faults.ClientEnd(clients[(i+1)%len(clients)]), 0.15, 3)
		}
	}
	sched := faults.NewScheduler(plan, tb)
	sched.SetMetrics(reg)
	sched.Start()

	// Candidate sets come from the directory; a fetch that fails under
	// partition reuses the previous set (the client's cached view).
	cands := []netsim.Option{netsim.DirectOption()}
	refresh := func() {
		dir, derr := tb.Ctrl.Relays()
		if derr != nil {
			return
		}
		// Stable candidate order: the selector's tie-breaks must not
		// depend on directory-map iteration order.
		ids := make([]netsim.RelayID, 0, len(dir))
		for id := range dir {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		next := []netsim.Option{netsim.DirectOption()}
		for _, id := range ids {
			next = append(next, netsim.BounceOption(id))
		}
		cands = next
	}
	refresh()

	completed, failed := 0, 0
	for i := 0; i < cfg.Calls; i++ {
		if i%5 == 0 {
			refresh()
		}
		caller := tb.Clients[i%len(tb.Clients)]
		callee := tb.Clients[(i+1)%len(tb.Clients)]
		src, dst := int32(caller.AS), int32(callee.AS)
		opt, _ := sel.Choose(src, dst, cands)
		out, cerr := caller.Agent.CallResilient(client.CallSpec{
			Peer:     callee.Agent.Addr(),
			Option:   opt,
			Failover: []netsim.Option{netsim.DirectOption()},
			Duration: cfg.CallDuration,
			PPS:      cfg.PPS,
			Repair:   scheme,
		})
		for _, dead := range out.Failed {
			sel.ReportFailure(src, dst, dead)
		}
		if cerr != nil {
			failed++
			continue
		}
		completed++
		sel.Report(src, dst, out.Used, out.Metrics)
	}
	sched.Stop()
	// Deterministic cleanup for the final accounting, whatever the plan
	// got through before the run ended.
	tb.SetControlPartitioned(false)
	if tb.ControllerDown() {
		if rerr := tb.RestartController(); rerr != nil {
			return nil, rerr
		}
	}
	if !tb.RelayAlive(victim) {
		if rerr := tb.ReviveRelay(victim); rerr != nil {
			return nil, rerr
		}
	}

	var failovers int64
	for _, c := range tb.Clients {
		failovers += c.Agent.Failovers()
	}
	st, err := tb.Ctrl.Stats()
	if err != nil {
		return nil, err
	}
	h, err := tb.Ctrl.Health()
	if err != nil {
		return nil, err
	}

	scenario := "relay death + controller flap"
	if cfg.WALDir != "" {
		scenario = "relay death + controller flap + crash/WAL-restart"
	}
	if scheme != rtp.SchemeNone {
		scenario += fmt.Sprintf(" + burst loss (repair=%v)", scheme)
	}
	t := &stats.Table{
		Title:   fmt.Sprintf("Chaos: %d calls under %s (seed %d)", cfg.Calls, scenario, cfg.Seed),
		Headers: []string{"metric", "value", "note"},
	}
	t.AddRow("calls completed", completed, fmt.Sprintf("of %d placed", cfg.Calls))
	t.AddRow("calls failed", failed, "no path at all")
	t.AddRow("mid-call failovers", failovers, "repaths without dropping the call")
	t.AddRow("stale decisions", sel.Stale(), "served from cache/direct, controller down")
	t.AddRow("lost reports", sel.LostReports(), "absorbed, not fatal")
	t.AddRow("control retries", tb.Ctrl.Retries(), "extra attempts beyond the first")
	t.AddRow("fault events fired", sched.Fired(), fmt.Sprintf("of %d planned", len(plan.Events)))
	t.AddRow("controller panics", st.Panics, "must be 0")
	t.AddRow("live relays at end", h.Relays, fmt.Sprintf("of %d deployed", cfg.NumRelays))
	if cfg.WALDir != "" {
		t.AddRow("wal lsn applied", int64(tb.CtrlSrv.AppliedLSN()), "decision records durable and applied")
		t.AddRow("controller term", int64(tb.CtrlSrv.Term()), ">= 2: leadership re-acquired after crash")
	}
	snap := reg.Snapshot()
	t.AddRow("fault injections (metrics)", int64(sumPrefix(snap, "via_faults_injected_total")),
		"via_faults_injected_total across kinds")
	t.AddRow("dead-path reports (metrics)", int64(sumPrefix(snap, "via_client_dead_path_reports")),
		"clients flagging broken relays")
	t.AddRow("strategy decisions (metrics)", int64(sumPrefix(snap, "via_decision_total")),
		"via_decision_total across outcomes")
	if scheme != rtp.SchemeNone {
		t.AddRow("nacks sent (metrics)", int64(sumPrefix(snap, "via_client_nacks_sent")),
			"repair requests from callees")
		t.AddRow("nacks honored (metrics)", int64(sumPrefix(snap, "via_client_nacks_honored")),
			"retransmits served from the rtx ring")
		t.AddRow("fec recoveries (metrics)", int64(sumPrefix(snap, "via_client_fec_recoveries")),
			"packets rebuilt from parity")
		t.AddRow("red duplicates (metrics)", int64(sumPrefix(snap, "via_client_red_duplicates")),
			"duplicates absorbed at the receiver")
		t.AddRow("rtx deadline misses (metrics)", int64(sumPrefix(snap, "via_client_rtx_deadline_misses")),
			"gaps abandoned past retry cap/playout")
	}
	return []*stats.Table{t}, nil
}

// sumPrefix totals every series in a snapshot whose name is exactly base or
// base plus a label set ("base{...}").
func sumPrefix(snap map[string]float64, base string) float64 {
	var sum float64
	for name, v := range snap {
		if name == base || strings.HasPrefix(name, base+"{") {
			sum += v
		}
	}
	return sum
}
