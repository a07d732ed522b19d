// Package testbed assembles the real-networking deployment of §5.5 on
// loopback: a controller (HTTP), relay nodes (UDP forwarders), and client
// agents, with every link shaped by the wan package using one-way
// parameters derived from the same synthetic world model the trace-driven
// experiments use. The paper ran this with modified Skype clients on 14
// machines across five countries; here the machines are goroutines and the
// WAN is the impairment layer, but the control protocol, media path, and
// measurement pipeline are all real.
package testbed

import (
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/relay"
	"repro/internal/wan"
)

// Config parameterizes the deployment.
type Config struct {
	Seed uint64
	// World supplies link characteristics and candidate options.
	World *netsim.World
	// ClientASes places one client agent in each listed AS.
	ClientASes []netsim.ASID
	// RelayIDs lists which of the world's relays to start.
	RelayIDs []netsim.RelayID
	// Strategy runs inside the controller (default: Via optimizing RTT).
	Strategy core.Strategy
	// TimeScale is the controller's virtual hours per wall second
	// (default 7200: one second = two hours, so a 24h prediction epoch
	// rolls every 12 seconds).
	TimeScale float64
	// RelayTTL expires relays whose heartbeats lapse (see
	// controller.Config.RelayTTL). Pair with StartHeartbeats so live
	// relays stay registered; 0 disables expiry.
	RelayTTL time.Duration
	// ControlRetry overrides the shared control client's retry policy
	// (zero value: controller.DefaultRetryPolicy).
	ControlRetry controller.RetryPolicy
	// Metrics optionally supplies the deployment-wide registry, so a
	// caller can pre-wire its own strategy (core.ViaConfig.Metrics) into
	// the same one the testbed publishes to. Nil creates a fresh registry;
	// either way it ends up on Testbed.Metrics and GET /metrics.
	Metrics *obs.Registry

	// WALDir enables controller durability: the controller is built with
	// controller.Open, logging every decision and report so the
	// crash-restart fault kinds recover state from disk.
	WALDir string
	// NewStrategy builds a fresh strategy instance per controller boot.
	// Required with WALDir: RestartController must prove recovery comes
	// from the WAL, so it cannot reuse the crashed process's in-memory
	// strategy. When set it supersedes Strategy for the primary.
	NewStrategy func() core.Strategy
	// StandbyWALDir, when non-empty (requires WALDir), deploys a warm
	// standby controller tailing the primary's WAL; tb.Ctrl and the admin
	// client learn it as a failover replica.
	StandbyWALDir string
	// LeaseTimeout bounds how long the standby tolerates primary silence
	// before the lease lapses (0 = controller default, 2s).
	LeaseTimeout time.Duration
	// AutoPromote lets the standby promote itself when the lease lapses;
	// otherwise promotion takes the promote-standby fault (or viactl).
	AutoPromote bool
	// Admission forwards overload-protection limits to the primary
	// controller (zero value: no limits).
	Admission controller.AdmissionConfig
}

// ClientNode is one deployed agent.
type ClientNode struct {
	AS     netsim.ASID
	Agent  *client.Agent
	Shaper *wan.Shaper
}

// Testbed is a running deployment. Close it when done.
//
// The testbed doubles as the fault-injection target (faults.Target): a
// fault plan can kill and revive relays, blackhole segments, and impair
// the control plane of a live deployment. Control RPCs issued through
// Ctrl traverse a faults.FlakyTransport, so control-plane faults hit the
// experiment's traffic but not the testbed's own plumbing (heartbeats and
// fault bookkeeping use a private pristine client).
type Testbed struct {
	World   *netsim.World
	Ctrl    *controller.Client
	CtrlSrv *controller.Server
	CtrlURL string
	Clients []*ClientNode
	Relays  []*relay.Node
	// Flaky is the fault-injectable transport under Ctrl.
	Flaky *faults.FlakyTransport
	// Metrics is the deployment-wide registry: controller, strategy,
	// relays, clients, and WAN shapers all publish into it, and the
	// controller serves it on GET /metrics. Attach it to a faults.Scheduler
	// (SetMetrics) to count injections in the same place.
	Metrics *obs.Registry
	// StandbySrv and StandbyURL are the warm standby deployment; nil/""
	// unless Config.StandbyWALDir is set.
	StandbySrv *controller.Server
	StandbyURL string

	cfg           Config
	ctrlServer    *http.Server
	ctrlListener  net.Listener
	ctrlAddr      string // stable: crash-restart rebinds here
	standbyServer *http.Server
	adminCtrl     *controller.Client // pristine path for heartbeats/admin

	mu           sync.Mutex
	ctrlDown     bool // guarded by mu — controller crashed, not yet restarted
	relayShapers []*wan.Shaper
	relayAddrs   []string // stable across kill/revive (rebound in place)
	deadRelays   map[netsim.RelayID]bool
	rebindSeq    uint64 // guarded by mu — RebindClient shaper seed uniquifier

	hbStop chan struct{}
	hbOnce sync.Once
	hbWG   sync.WaitGroup
}

// Start brings up the controller, relays, and clients, registers relays,
// distributes the relay directory, and configures link impairments.
func Start(cfg Config) (*Testbed, error) {
	if cfg.World == nil {
		return nil, fmt.Errorf("testbed: World is required")
	}
	if len(cfg.ClientASes) < 2 {
		return nil, fmt.Errorf("testbed: need at least two client ASes")
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if cfg.NewStrategy != nil {
		cfg.Strategy = cfg.NewStrategy()
	}
	if cfg.Strategy == nil {
		vcfg := core.DefaultViaConfig(quality.RTT)
		vcfg.Metrics = reg
		cfg.Strategy = core.NewVia(vcfg, nil)
	}
	if cfg.WALDir != "" && cfg.NewStrategy == nil {
		return nil, fmt.Errorf("testbed: WALDir requires NewStrategy (restart must rebuild the strategy from the WAL)")
	}
	if cfg.StandbyWALDir != "" && cfg.WALDir == "" {
		return nil, fmt.Errorf("testbed: StandbyWALDir requires WALDir")
	}
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 7200
	}

	tb := &Testbed{
		World:      cfg.World,
		Metrics:    reg,
		cfg:        cfg,
		deadRelays: make(map[netsim.RelayID]bool),
		hbStop:     make(chan struct{}),
	}
	ok := false
	defer func() {
		if !ok {
			tb.Close()
		}
	}()

	// Controller.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	tb.ctrlListener = ln
	tb.ctrlAddr = ln.Addr().String()
	if cfg.WALDir != "" {
		srv, err := controller.Open(tb.primaryConfig(cfg.Strategy))
		if err != nil {
			return nil, err
		}
		tb.CtrlSrv = srv
	} else {
		tb.CtrlSrv = controller.New(controller.Config{
			Strategy: cfg.Strategy, TimeScale: cfg.TimeScale, RelayTTL: cfg.RelayTTL,
			Metrics: reg, Admission: cfg.Admission,
		})
	}
	tb.ctrlServer = &http.Server{Handler: tb.CtrlSrv.Handler()}
	go tb.ctrlServer.Serve(ln)
	tb.CtrlURL = "http://" + tb.ctrlAddr

	// Warm standby: a second durable controller tails the primary's WAL
	// over HTTP. It shares the deployment's clock scale but not its metrics
	// registry (controller gauges are singletons per registry).
	if cfg.StandbyWALDir != "" {
		sln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		sb, err := controller.Open(controller.Config{
			Strategy: cfg.NewStrategy(), TimeScale: cfg.TimeScale, RelayTTL: cfg.RelayTTL,
			WALDir: cfg.StandbyWALDir, StandbyOf: tb.CtrlURL,
			LeaseTimeout: cfg.LeaseTimeout, AutoPromote: cfg.AutoPromote,
			Admission: cfg.Admission,
		})
		if err != nil {
			sln.Close() //vialint:ignore errwrap cleanup of a listener whose server never started
			return nil, err
		}
		tb.StandbySrv = sb
		tb.standbyServer = &http.Server{Handler: sb.Handler()}
		go tb.standbyServer.Serve(sln)
		tb.StandbyURL = "http://" + sln.Addr().String()
	}

	// The experiment's control path goes through the fault-injectable
	// transport; testbed plumbing gets its own clean client.
	tb.Flaky = faults.NewFlakyTransport(nil, cfg.Seed)
	tb.Ctrl = controller.NewClient(tb.CtrlURL)
	// Timeout backstops the per-attempt retry deadlines; generous so the
	// injected stalls under test still hit the retry policy first.
	tb.Ctrl.HTTP = &http.Client{Transport: tb.Flaky, Timeout: 30 * time.Second}
	tb.Ctrl.Retry = cfg.ControlRetry
	tb.adminCtrl = controller.NewClient(tb.CtrlURL)
	if tb.StandbyURL != "" {
		tb.Ctrl.Replicas = []string{tb.StandbyURL}
		tb.adminCtrl.Replicas = []string{tb.StandbyURL}
	}
	reg.GaugeFunc("via_client_control_retries",
		func() float64 { return float64(tb.Ctrl.Retries()) })
	// WAN telemetry aggregates across every shaper in the deployment; the
	// closures read live so revived relays' fresh shapers are included.
	reg.GaugeFunc("via_wan_fault_drops",
		func() float64 { return tb.wanTotal((*wan.Shaper).FaultDrops) })
	reg.GaugeFunc("via_wan_loss_drops",
		func() float64 { return tb.wanTotal((*wan.Shaper).LossDrops) })
	reg.GaugeFunc("via_wan_delayed_packets",
		func() float64 { return tb.wanTotal((*wan.Shaper).Delayed) })

	// Relays.
	for _, id := range cfg.RelayIDs {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		sh := wan.Wrap(pc, cfg.Seed^uint64(id)<<8)
		node := relay.New(id, sh)
		node.RegisterMetrics(reg)
		go node.Serve()
		tb.Relays = append(tb.Relays, node)
		tb.relayShapers = append(tb.relayShapers, sh)
		tb.relayAddrs = append(tb.relayAddrs, node.Addr().String())
		if err := tb.adminCtrl.RegisterRelay(id, node.Addr().String()); err != nil {
			return nil, err
		}
	}

	// Clients.
	for i, as := range cfg.ClientASes {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		sh := wan.Wrap(pc, cfg.Seed^uint64(as)<<16^uint64(i))
		ag := client.New(retiringConn{sh}, cfg.Seed+uint64(i)*7919)
		ag.RegisterMetrics(reg, strconv.Itoa(int(as)))
		tb.Clients = append(tb.Clients, &ClientNode{AS: as, Agent: ag, Shaper: sh})
	}

	// Relay directory to every client.
	dir, err := tb.adminCtrl.Relays()
	if err != nil {
		return nil, err
	}
	for _, c := range tb.Clients {
		if err := c.Agent.SetRelays(dir); err != nil {
			return nil, err
		}
	}

	tb.configureLinks(cfg.RelayIDs)
	ok = true
	return tb, nil
}

// primaryConfig builds the durable primary's controller config around a
// given strategy instance — shared by Start and RestartController so a
// restarted controller boots with exactly the deployment's parameters.
func (tb *Testbed) primaryConfig(strategy core.Strategy) controller.Config {
	return controller.Config{
		Strategy: strategy, TimeScale: tb.cfg.TimeScale, RelayTTL: tb.cfg.RelayTTL,
		Metrics: tb.Metrics, WALDir: tb.cfg.WALDir,
		LeaseTimeout: tb.cfg.LeaseTimeout, Admission: tb.cfg.Admission,
	}
}

// oneWay converts a segment's round-trip characteristics into one direction
// of link impairment.
func oneWay(m quality.Metrics) wan.LinkParams {
	return wan.LinkParams{
		DelayMs:  m.RTTMs / 2,
		JitterMs: m.JitterMs / 2,
		LossRate: 1 - math.Sqrt(1-math.Min(m.LossRate, 0.99)),
	}
}

// configureLinks derives every node-to-node impairment from the world's
// window-0 ground truth.
func (tb *Testbed) configureLinks(relayIDs []netsim.RelayID) {
	const window = 0
	w := tb.World
	// Client links.
	for _, c := range tb.Clients {
		for i, rid := range relayIDs {
			p := oneWay(w.AccessMetrics(c.AS, rid, window))
			addr := tb.Relays[i].Addr().String()
			c.Shaper.SetLink(addr, p)
			tb.relayShapers[i].SetLink(c.Agent.Addr().String(), p)
		}
		for _, other := range tb.Clients {
			if other == c {
				continue
			}
			p := oneWay(w.WindowMean(c.AS, other.AS, netsim.DirectOption(), window))
			c.Shaper.SetLink(other.Agent.Addr().String(), p)
		}
	}
	// Backbone links.
	for i, r1 := range relayIDs {
		for j, r2 := range relayIDs {
			if i == j {
				continue
			}
			p := oneWay(w.BackboneMetrics(r1, r2, window))
			tb.relayShapers[i].SetLink(tb.Relays[j].Addr().String(), p)
		}
	}
}

// wanTotal sums one shaper counter across the whole deployment (clients
// and whichever relay shapers are currently live).
func (tb *Testbed) wanTotal(read func(*wan.Shaper) int64) float64 {
	var sum int64
	tb.mu.Lock()
	for _, sh := range tb.relayShapers {
		sum += read(sh)
	}
	// Client shapers are swapped in place by RebindClient (under mu).
	for _, c := range tb.Clients {
		sum += read(c.Shaper)
	}
	tb.mu.Unlock()
	return float64(sum)
}

// Client returns the node for an AS, or nil.
func (tb *Testbed) Client(as netsim.ASID) *ClientNode {
	for _, c := range tb.Clients {
		if c.AS == as {
			return c
		}
	}
	return nil
}

// Close tears everything down.
func (tb *Testbed) Close() {
	tb.StopHeartbeats()
	for _, c := range tb.Clients {
		if c != nil && c.Agent != nil {
			c.Agent.Close() //vialint:ignore errwrap teardown: agents may already be closed by the scenario under test
		}
	}
	tb.mu.Lock()
	relays := append([]*relay.Node(nil), tb.Relays...)
	tb.mu.Unlock()
	for _, r := range relays {
		r.Close() //vialint:ignore errwrap teardown: fault scenarios kill relays mid-run, double close is expected
	}
	if tb.standbyServer != nil {
		tb.standbyServer.Close() //vialint:ignore errwrap teardown: standby listener may already be down
	}
	if tb.StandbySrv != nil {
		tb.StandbySrv.Close() //vialint:ignore errwrap teardown: promotion scenarios may have closed it already
	}
	if tb.ctrlServer != nil {
		tb.ctrlServer.Close() //vialint:ignore errwrap teardown: listener may already be flapped down by the fault harness
	}
	if tb.CtrlSrv != nil {
		tb.CtrlSrv.Close() //vialint:ignore errwrap teardown: crash faults close the controller mid-scenario, double close is expected
	}
}
