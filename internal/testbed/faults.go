package testbed

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/controller"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/relay"
	"repro/internal/wan"
)

// The Testbed implements faults.Target, so a faults.Plan (via Apply or a
// real-time Scheduler) drives failures straight into the deployment:
// relay death/revival at the process level, blackholes at the wan.Shaper
// level, and control-plane impairment through the FlakyTransport under
// tb.Ctrl.
var _ faults.Target = (*Testbed)(nil)

// relayIndex maps a relay id to its slot. Caller holds tb.mu.
func (tb *Testbed) relayIndexLocked(id netsim.RelayID) (int, error) {
	for i, rid := range tb.cfg.RelayIDs {
		if rid == id {
			return i, nil
		}
	}
	return 0, fmt.Errorf("testbed: relay %d is not part of this deployment", id)
}

// KillRelay stops a relay process: its socket closes mid-stream (in-flight
// calls lose the hop silently) and its heartbeats cease, so with a RelayTTL
// configured it ages out of the controller directory.
func (tb *Testbed) KillRelay(id netsim.RelayID) error {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	i, err := tb.relayIndexLocked(id)
	if err != nil {
		return err
	}
	if tb.deadRelays[id] {
		return fmt.Errorf("testbed: relay %d is already dead", id)
	}
	tb.deadRelays[id] = true
	return tb.Relays[i].Close()
}

// ReviveRelay restarts a killed relay on its original address (so every
// shaper link keyed by that address still applies), re-applies its
// outgoing impairments, and re-registers it with the controller.
func (tb *Testbed) ReviveRelay(id netsim.RelayID) error {
	tb.mu.Lock()
	i, err := tb.relayIndexLocked(id)
	if err != nil {
		tb.mu.Unlock()
		return err
	}
	if !tb.deadRelays[id] {
		tb.mu.Unlock()
		return fmt.Errorf("testbed: relay %d is not dead", id)
	}
	addr := tb.relayAddrs[i]
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		tb.mu.Unlock()
		return fmt.Errorf("testbed: rebind relay %d on %s: %w", id, addr, err)
	}
	sh := wan.Wrap(pc, tb.cfg.Seed^uint64(id)<<8)
	node := relay.New(id, sh)
	// Rebind the relay's labeled series to the fresh node (GaugeFunc
	// replace semantics); the dead process's totals are gone with it.
	node.RegisterMetrics(tb.Metrics)
	go node.Serve()
	tb.Relays[i] = node
	tb.relayShapers[i] = sh
	delete(tb.deadRelays, id)
	tb.applyRelayLinksLocked(i)
	tb.mu.Unlock()
	return tb.adminCtrl.RegisterRelay(id, addr)
}

// applyRelayLinksLocked re-derives relay i's outgoing link impairments
// from the world model (the inbound direction lives on other shapers,
// keyed by this relay's stable address, and needs no touch-up). Caller
// holds tb.mu.
func (tb *Testbed) applyRelayLinksLocked(i int) {
	const window = 0
	w := tb.World
	rid := tb.cfg.RelayIDs[i]
	sh := tb.relayShapers[i]
	for _, c := range tb.Clients {
		sh.SetLink(c.Agent.Addr().String(), oneWay(w.AccessMetrics(c.AS, rid, window)))
	}
	for j, other := range tb.cfg.RelayIDs {
		if j == i {
			continue
		}
		sh.SetLink(tb.relayAddrs[j], oneWay(w.BackboneMetrics(rid, other, window)))
	}
}

// RelayAlive reports whether a relay process is currently running.
func (tb *Testbed) RelayAlive(id netsim.RelayID) bool {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return !tb.deadRelays[id]
}

// endpointLocked resolves a fault endpoint to its shaper and stable
// address. Caller holds tb.mu.
func (tb *Testbed) endpointLocked(e faults.Endpoint) (*wan.Shaper, string, error) {
	switch e.Kind {
	case faults.ClientEndpoint:
		for _, c := range tb.Clients {
			if c.AS == e.AS {
				return c.Shaper, c.Agent.Addr().String(), nil
			}
		}
		return nil, "", fmt.Errorf("testbed: no client in AS %d", e.AS)
	case faults.RelayEndpoint:
		i, err := tb.relayIndexLocked(e.Relay)
		if err != nil {
			return nil, "", err
		}
		return tb.relayShapers[i], tb.relayAddrs[i], nil
	default:
		return nil, "", fmt.Errorf("testbed: unknown endpoint kind %d", e.Kind)
	}
}

// Blackhole silently drops every packet between the two endpoints, both
// directions — the route-withdrawal failure a sender cannot see.
func (tb *Testbed) Blackhole(a, b faults.Endpoint) error {
	return tb.setBlackhole(a, b, true)
}

// Heal removes a blackhole.
func (tb *Testbed) Heal(a, b faults.Endpoint) error {
	return tb.setBlackhole(a, b, false)
}

func (tb *Testbed) setBlackhole(a, b faults.Endpoint, on bool) error {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	shA, addrA, err := tb.endpointLocked(a)
	if err != nil {
		return err
	}
	shB, addrB, err := tb.endpointLocked(b)
	if err != nil {
		return err
	}
	shA.SetBlackhole(addrB, on)
	shB.SetBlackhole(addrA, on)
	return nil
}

// SetBurstLoss layers Gilbert-Elliott correlated loss onto the segment
// between two endpoints (both directions), preserving whatever delay,
// jitter, and independent loss the world model already put on the link.
// Rate 0 heals the segment.
func (tb *Testbed) SetBurstLoss(a, b faults.Endpoint, rate, meanBurstLen float64) error {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	shA, addrA, err := tb.endpointLocked(a)
	if err != nil {
		return err
	}
	shB, addrB, err := tb.endpointLocked(b)
	if err != nil {
		return err
	}
	set := func(sh *wan.Shaper, dst string) {
		p := sh.Link(dst)
		p.BurstLossRate = rate
		p.MeanBurstLen = meanBurstLen
		sh.SetLink(dst, p)
	}
	set(shA, addrB)
	set(shB, addrA)
	return nil
}

// CrashController kills the primary controller abruptly: the listener
// closes mid-request (in-flight RPCs see connection resets) and the
// server's durability resources are released so a later restart can
// reopen the WAL. No drain, no flush beyond what the WAL's group commit
// already made durable — that asymmetry is the fault being injected.
func (tb *Testbed) CrashController() error {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if tb.ctrlDown {
		return fmt.Errorf("testbed: controller is already down")
	}
	tb.ctrlDown = true
	tb.ctrlServer.Close() //vialint:ignore errwrap crash is abrupt by design; the reset connections are the fault
	return tb.CtrlSrv.Close()
}

// RestartController boots a fresh controller on the crashed primary's
// address: a new strategy instance (from Config.NewStrategy), state
// recovered entirely from the WAL on disk, and the same URL so clients
// and the standby reconnect without reconfiguration.
func (tb *Testbed) RestartController() error {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if !tb.ctrlDown {
		return fmt.Errorf("testbed: controller is not down")
	}
	if tb.cfg.WALDir == "" || tb.cfg.NewStrategy == nil {
		return fmt.Errorf("testbed: restart requires WALDir and NewStrategy")
	}
	ln, err := net.Listen("tcp", tb.ctrlAddr)
	if err != nil {
		return fmt.Errorf("testbed: rebind controller on %s: %w", tb.ctrlAddr, err)
	}
	srv, err := controller.Open(tb.primaryConfig(tb.cfg.NewStrategy()))
	if err != nil {
		ln.Close() //vialint:ignore errwrap cleanup of a listener whose server never started
		return fmt.Errorf("testbed: reopen controller: %w", err)
	}
	tb.CtrlSrv = srv
	tb.ctrlListener = ln
	tb.ctrlServer = &http.Server{Handler: srv.Handler()}
	go tb.ctrlServer.Serve(ln)
	tb.ctrlDown = false
	return nil
}

// PromoteStandby promotes the warm standby to primary — the operator's
// failover action when the primary is gone for good.
func (tb *Testbed) PromoteStandby() error {
	if tb.StandbySrv == nil {
		return fmt.Errorf("testbed: no standby deployed")
	}
	_, err := tb.StandbySrv.Promote()
	return err
}

// ControllerDown reports whether the primary controller is currently
// crashed (between a crash-controller and a restart-controller fault).
func (tb *Testbed) ControllerDown() bool {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return tb.ctrlDown
}

// SetControlPartitioned fails every experiment control RPC fast while on.
func (tb *Testbed) SetControlPartitioned(on bool) { tb.Flaky.SetPartitioned(on) }

// SetControlDropRate drops the given fraction of experiment control RPCs.
func (tb *Testbed) SetControlDropRate(rate float64) { tb.Flaky.SetDropRate(rate) }

// SetControlDelay adds fixed latency to experiment control RPCs.
func (tb *Testbed) SetControlDelay(d time.Duration) { tb.Flaky.SetDelay(d) }

// StartHeartbeats re-registers every live relay with the controller at
// the given period, over the pristine admin client (a flapping control
// plane must not evict relays that are in fact alive — only death, which
// stops the heartbeat, should). Call once; Close stops it.
func (tb *Testbed) StartHeartbeats(every time.Duration) {
	if every <= 0 {
		every = 100 * time.Millisecond
	}
	tb.hbWG.Add(1)
	go func() {
		defer tb.hbWG.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-tb.hbStop:
				return
			case <-tick.C:
			}
			tb.mu.Lock()
			type beat struct {
				id       netsim.RelayID
				addr     string
				draining bool
			}
			var beats []beat
			for i, id := range tb.cfg.RelayIDs {
				if !tb.deadRelays[id] {
					// Each beat carries the relay's live drain state, so a
					// drain set mid-scenario is not clobbered by the next
					// periodic re-registration.
					beats = append(beats, beat{id, tb.relayAddrs[i], tb.Relays[i].Draining()})
				}
			}
			tb.mu.Unlock()
			for _, b := range beats {
				_ = tb.adminCtrl.HeartbeatRelay(b.id, b.addr, b.draining) //vialint:ignore errwrap heartbeat is periodic; a missed beat is retried next tick
			}
		}
	}()
}

// StopHeartbeats halts the heartbeat loop (idempotent; Close calls it).
func (tb *Testbed) StopHeartbeats() {
	tb.hbOnce.Do(func() { close(tb.hbStop) })
	tb.hbWG.Wait()
}
