// Package faults is the testbed's fault-injection subsystem: a
// deterministic, seeded scheduler that drives failures into a running
// deployment — relay death and revival (process-level), blackholed
// src↔relay segments (packet-level, via wan.Shaper), and control-plane
// impairment (dropped, delayed, or fully partitioned controller RPCs, via
// FlakyTransport).
//
// The paper's premise (§3.1, §4.4) is that paths fail and drift: relays
// die, heartbeats lapse, and the controller must keep learning from
// end-to-end measurements. This package turns those failure modes into
// first-class, replayable scenarios. A Plan is a small scenario DSL — an
// ordered list of timed events built fluently:
//
//	plan := faults.NewPlan(1).
//	    KillRelayAt(300*time.Millisecond, 3).
//	    PartitionControllerAt(500*time.Millisecond).
//	    HealControllerAt(900*time.Millisecond).
//	    ReviveRelayAt(2*time.Second, 3)
//
// A Scheduler fires the plan's events against any Target (the testbed
// implements it) in real time; tests that want virtual time can call
// Plan.Apply to fire every event synchronously, or Event.Apply one at a
// time. Everything probabilistic (control-RPC drop decisions) flows from
// the plan's seed, so a scenario replays identically.
package faults

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
)

// Kind enumerates the fault taxonomy.
type Kind uint8

const (
	// KillRelay stops a relay process; its socket closes and its
	// heartbeats cease, so it ages out of the controller directory.
	KillRelay Kind = iota
	// ReviveRelay restarts a previously killed relay on its old address
	// and re-registers it.
	ReviveRelay
	// Blackhole silently drops every packet on a segment (both
	// directions) — the failure a dead middlebox or route withdrawal
	// produces, invisible to the sender.
	Blackhole
	// Heal removes a blackhole.
	Heal
	// PartitionController makes every control RPC fail fast — the agent
	// cannot reach the controller at all.
	PartitionController
	// HealController removes a partition.
	HealController
	// DropControl drops a fraction of control RPCs (lossy control path).
	DropControl
	// DelayControl adds fixed latency to every control RPC.
	DelayControl
	// CrashController kills the controller process abruptly — no drain, no
	// handover; in-flight RPCs die with their connections. Durable state
	// survives only through the WAL.
	CrashController
	// RestartController brings a crashed controller back on its original
	// address, recovering its state from snapshot + WAL replay.
	RestartController
	// PromoteStandby promotes the deployment's warm standby to primary.
	PromoteStandby
	// BurstLoss imposes Gilbert-Elliott correlated packet loss on a
	// segment (both directions) — the bursty congestion the loss-repair
	// layer exists to survive. Rate carries the stationary loss fraction
	// and MeanBurst the mean burst length; rate 0 heals the segment.
	BurstLoss
	// KillShard kills one ring shard's primary controller abruptly — the
	// sharded-control-plane analogue of CrashController. Targets must
	// implement ShardTarget.
	KillShard
	// PromoteShardStandby promotes a ring shard's warm standby to primary.
	PromoteShardStandby
	// AddShard grows the ring by one shard and rebalances the moved pairs
	// onto it (epoch+1 map install, then WAL replay of moved pairs).
	AddShard
	// RemoveShard drains a ring shard: epoch+1 map install, moved pairs
	// replayed onto their new owners, then the shard shuts down.
	RemoveShard
	// NATRebind swaps one client's transport for a fresh socket mid-call —
	// the NAT rebinding / interface handover of DESIGN.md §17. The client's
	// address changes; token-bearing calls must survive via relay path
	// validation and return-path re-pinning. Targets must implement
	// MobilityTarget.
	NATRebind
	// Churn fires one churn wave: every client listed on the event rebinds
	// in order — concentrated mobility, the worst case for address-keyed
	// session state. Targets must implement MobilityTarget.
	Churn
	// DrainRelay toggles a relay's maintenance drain: it stops accepting
	// new sessions, advertises draining on its heartbeat (the controller
	// excludes it from candidate enumeration), and nudges its active calls
	// toward backup relays. Event.Off lifts the drain. Targets must
	// implement MobilityTarget.
	DrainRelay
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case KillRelay:
		return "kill-relay"
	case ReviveRelay:
		return "revive-relay"
	case Blackhole:
		return "blackhole"
	case Heal:
		return "heal"
	case PartitionController:
		return "partition-controller"
	case HealController:
		return "heal-controller"
	case DropControl:
		return "drop-control"
	case DelayControl:
		return "delay-control"
	case CrashController:
		return "crash-controller"
	case RestartController:
		return "restart-controller"
	case PromoteStandby:
		return "promote-standby"
	case BurstLoss:
		return "burst-loss"
	case KillShard:
		return "kill-shard"
	case PromoteShardStandby:
		return "promote-shard-standby"
	case AddShard:
		return "add-shard"
	case RemoveShard:
		return "remove-shard"
	case NATRebind:
		return "nat-rebind"
	case Churn:
		return "churn"
	case DrainRelay:
		return "drain-relay"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// EndpointKind distinguishes segment endpoints.
type EndpointKind uint8

const (
	// ClientEndpoint is a client agent, identified by its AS.
	ClientEndpoint EndpointKind = iota
	// RelayEndpoint is a relay node, identified by its RelayID.
	RelayEndpoint
)

// Endpoint names one end of a blackholed segment.
type Endpoint struct {
	Kind  EndpointKind
	AS    netsim.ASID    // when Kind == ClientEndpoint
	Relay netsim.RelayID // when Kind == RelayEndpoint
}

// ClientEnd names a client endpoint by AS.
func ClientEnd(as netsim.ASID) Endpoint { return Endpoint{Kind: ClientEndpoint, AS: as} }

// RelayEnd names a relay endpoint.
func RelayEnd(id netsim.RelayID) Endpoint { return Endpoint{Kind: RelayEndpoint, Relay: id} } //vialint:ignore deadexport chaos DSL (DESIGN §9)

// String renders the endpoint compactly.
func (e Endpoint) String() string {
	if e.Kind == RelayEndpoint {
		return fmt.Sprintf("relay(%d)", e.Relay)
	}
	return fmt.Sprintf("as(%d)", e.AS)
}

// Event is one scheduled fault.
type Event struct {
	At    time.Duration // offset from scheduler start
	Kind  Kind
	Relay netsim.RelayID // KillRelay / ReviveRelay
	A, B  Endpoint       // Blackhole / Heal segment ends
	Rate  float64        // DropControl probability / BurstLoss stationary loss rate
	Delay time.Duration  // DelayControl added latency
	// MeanBurst is the BurstLoss mean burst length in packets.
	MeanBurst float64
	// Shard is the ring shard ID for KillShard / PromoteShardStandby /
	// RemoveShard (AddShard mints its own ID).
	Shard int
	// Clients lists the agents a Churn wave rebinds, in order. NATRebind
	// names its single client through A (ClientEnd).
	Clients []netsim.ASID
	// Off lifts a DrainRelay instead of setting it.
	Off bool
}

// String renders the event for logs and errors.
func (e Event) String() string {
	switch e.Kind {
	case KillRelay, ReviveRelay:
		return fmt.Sprintf("%s@%s relay=%d", e.Kind, e.At, e.Relay)
	case Blackhole, Heal:
		return fmt.Sprintf("%s@%s %s<->%s", e.Kind, e.At, e.A, e.B)
	case BurstLoss:
		return fmt.Sprintf("%s@%s %s<->%s rate=%.2f burst=%.1f", e.Kind, e.At, e.A, e.B, e.Rate, e.MeanBurst)
	case DropControl:
		return fmt.Sprintf("%s@%s rate=%.2f", e.Kind, e.At, e.Rate)
	case DelayControl:
		return fmt.Sprintf("%s@%s delay=%s", e.Kind, e.At, e.Delay)
	case KillShard, PromoteShardStandby, RemoveShard:
		return fmt.Sprintf("%s@%s shard=%d", e.Kind, e.At, e.Shard)
	case NATRebind:
		return fmt.Sprintf("%s@%s %s", e.Kind, e.At, e.A)
	case Churn:
		return fmt.Sprintf("%s@%s clients=%d", e.Kind, e.At, len(e.Clients))
	case DrainRelay:
		verb := "on"
		if e.Off {
			verb = "off"
		}
		return fmt.Sprintf("%s@%s relay=%d %s", e.Kind, e.At, e.Relay, verb)
	default:
		return fmt.Sprintf("%s@%s", e.Kind, e.At)
	}
}

// Target is what a fault plan acts on. The testbed implements it; unit
// tests use lightweight fakes.
type Target interface {
	// KillRelay stops the relay process.
	KillRelay(id netsim.RelayID) error
	// ReviveRelay restarts a killed relay on its original address.
	ReviveRelay(id netsim.RelayID) error
	// Blackhole drops all packets between the two endpoints (both
	// directions) until healed.
	Blackhole(a, b Endpoint) error
	// Heal removes a blackhole.
	Heal(a, b Endpoint) error
	// SetControlPartitioned makes all control RPCs fail fast while true.
	SetControlPartitioned(on bool)
	// SetControlDropRate drops the given fraction of control RPCs.
	SetControlDropRate(rate float64)
	// SetControlDelay adds fixed latency to control RPCs.
	SetControlDelay(d time.Duration)
	// CrashController kills the controller process abruptly (no drain).
	CrashController() error
	// RestartController restarts a crashed controller on its original
	// address, recovering from its durable state.
	RestartController() error
	// PromoteStandby promotes the warm standby controller to primary.
	PromoteStandby() error
	// SetBurstLoss imposes Gilbert-Elliott loss on a segment (both
	// directions); rate 0 heals it.
	SetBurstLoss(a, b Endpoint, rate, meanBurstLen float64) error
}

// ShardTarget is the extra surface a sharded control plane exposes to
// fault plans. Targets that also serve shard faults implement it
// alongside Target; Event.Apply type-asserts at firing time, so plans
// with shard events fail cleanly (not silently) against an unsharded
// target.
type ShardTarget interface {
	// KillShard kills one shard's primary controller abruptly.
	KillShard(id int) error
	// PromoteShardStandby promotes a shard's warm standby to primary.
	PromoteShardStandby(id int) error
	// AddShard grows the ring by one shard and rebalances onto it.
	AddShard() error
	// RemoveShard drains and removes a shard, rebalancing its pairs away.
	RemoveShard(id int) error
}

// Apply fires the event against the target.
func (e Event) Apply(t Target) error {
	switch e.Kind {
	case KillRelay:
		return t.KillRelay(e.Relay)
	case ReviveRelay:
		return t.ReviveRelay(e.Relay)
	case Blackhole:
		return t.Blackhole(e.A, e.B)
	case Heal:
		return t.Heal(e.A, e.B)
	case PartitionController:
		t.SetControlPartitioned(true)
	case HealController:
		t.SetControlPartitioned(false)
	case DropControl:
		t.SetControlDropRate(e.Rate)
	case DelayControl:
		t.SetControlDelay(e.Delay)
	case CrashController:
		return t.CrashController()
	case RestartController:
		return t.RestartController()
	case PromoteStandby:
		return t.PromoteStandby()
	case BurstLoss:
		return t.SetBurstLoss(e.A, e.B, e.Rate, e.MeanBurst)
	case KillShard, PromoteShardStandby, AddShard, RemoveShard:
		st, ok := t.(ShardTarget)
		if !ok {
			return fmt.Errorf("faults: target %T does not support shard faults", t)
		}
		switch e.Kind {
		case KillShard:
			return st.KillShard(e.Shard)
		case PromoteShardStandby:
			return st.PromoteShardStandby(e.Shard)
		case AddShard:
			return st.AddShard()
		default:
			return st.RemoveShard(e.Shard)
		}
	case NATRebind, Churn, DrainRelay:
		mt, ok := t.(MobilityTarget)
		if !ok {
			return fmt.Errorf("faults: target %T does not support mobility faults", t)
		}
		switch e.Kind {
		case NATRebind:
			return mt.RebindClient(e.A.AS)
		case Churn:
			for _, as := range e.Clients {
				if err := mt.RebindClient(as); err != nil {
					return err
				}
			}
			return nil
		default:
			return mt.SetRelayDraining(e.Relay, !e.Off)
		}
	default:
		return fmt.Errorf("faults: unknown event kind %v", e.Kind)
	}
	return nil
}

// Plan is a replayable fault scenario: a seed (consumed by probabilistic
// fault machinery such as FlakyTransport) and an ordered event list.
type Plan struct {
	Seed   uint64
	Events []Event
}

// NewPlan starts an empty plan.
func NewPlan(seed uint64) *Plan { return &Plan{Seed: seed} }

// add appends and returns the plan for chaining.
func (p *Plan) add(e Event) *Plan {
	p.Events = append(p.Events, e)
	return p
}

// KillRelayAt schedules a relay death.
func (p *Plan) KillRelayAt(at time.Duration, id netsim.RelayID) *Plan {
	return p.add(Event{At: at, Kind: KillRelay, Relay: id})
}

// ReviveRelayAt schedules a relay revival.
func (p *Plan) ReviveRelayAt(at time.Duration, id netsim.RelayID) *Plan {
	return p.add(Event{At: at, Kind: ReviveRelay, Relay: id})
}

// BlackholeAt schedules a segment blackhole.
func (p *Plan) BlackholeAt(at time.Duration, a, b Endpoint) *Plan { //vialint:ignore deadexport chaos DSL (DESIGN §9)
	return p.add(Event{At: at, Kind: Blackhole, A: a, B: b})
}

// HealAt schedules a segment heal.
func (p *Plan) HealAt(at time.Duration, a, b Endpoint) *Plan { //vialint:ignore deadexport chaos DSL (DESIGN §9)
	return p.add(Event{At: at, Kind: Heal, A: a, B: b})
}

// PartitionControllerAt schedules a full control-plane partition.
func (p *Plan) PartitionControllerAt(at time.Duration) *Plan {
	return p.add(Event{At: at, Kind: PartitionController})
}

// HealControllerAt schedules the partition's end.
func (p *Plan) HealControllerAt(at time.Duration) *Plan {
	return p.add(Event{At: at, Kind: HealController})
}

// CrashControllerAt schedules an abrupt controller death (kill -9: no
// drain, no handover).
func (p *Plan) CrashControllerAt(at time.Duration) *Plan {
	return p.add(Event{At: at, Kind: CrashController})
}

// RestartControllerAt schedules a crashed controller's restart, recovering
// state from its WAL.
func (p *Plan) RestartControllerAt(at time.Duration) *Plan {
	return p.add(Event{At: at, Kind: RestartController})
}

// PromoteStandbyAt schedules the warm standby's promotion to primary.
func (p *Plan) PromoteStandbyAt(at time.Duration) *Plan { //vialint:ignore deadexport chaos DSL (DESIGN §9)
	return p.add(Event{At: at, Kind: PromoteStandby})
}

// BurstLossAt schedules Gilbert-Elliott loss on a segment: stationary
// loss fraction rate with mean burst length meanBurstLen packets.
func (p *Plan) BurstLossAt(at time.Duration, a, b Endpoint, rate, meanBurstLen float64) *Plan {
	return p.add(Event{At: at, Kind: BurstLoss, A: a, B: b, Rate: rate, MeanBurst: meanBurstLen})
}

// HealBurstLossAt schedules the end of a segment's burst loss.
func (p *Plan) HealBurstLossAt(at time.Duration, a, b Endpoint) *Plan { //vialint:ignore deadexport chaos DSL (DESIGN §9)
	return p.add(Event{At: at, Kind: BurstLoss, A: a, B: b})
}

// KillShardAt schedules a ring shard's primary death.
func (p *Plan) KillShardAt(at time.Duration, shard int) *Plan {
	return p.add(Event{At: at, Kind: KillShard, Shard: shard})
}

// PromoteShardStandbyAt schedules a ring shard's standby promotion.
func (p *Plan) PromoteShardStandbyAt(at time.Duration, shard int) *Plan {
	return p.add(Event{At: at, Kind: PromoteShardStandby, Shard: shard})
}

// AddShardAt schedules a ring grow-and-rebalance.
func (p *Plan) AddShardAt(at time.Duration) *Plan {
	return p.add(Event{At: at, Kind: AddShard})
}

// RemoveShardAt schedules a ring shard's drain-and-remove.
func (p *Plan) RemoveShardAt(at time.Duration, shard int) *Plan { //vialint:ignore deadexport chaos DSL (DESIGN §9)
	return p.add(Event{At: at, Kind: RemoveShard, Shard: shard})
}

// FlapController schedules `times` partition/heal cycles starting at
// `start`: partitioned for `down`, healed for `up`, repeated.
func (p *Plan) FlapController(start, down, up time.Duration, times int) *Plan {
	at := start
	for i := 0; i < times; i++ {
		p.PartitionControllerAt(at)
		p.HealControllerAt(at + down)
		at += down + up
	}
	return p
}

// Sorted returns the events in firing order (stable by At, preserving
// insertion order for ties).
func (p *Plan) Sorted() []Event {
	out := append([]Event(nil), p.Events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Apply fires every event in order immediately (virtual time), collecting
// per-event errors. Tests use this to exercise targets without waiting.
func (p *Plan) Apply(t Target) []error { //vialint:ignore deadexport chaos DSL (DESIGN §9)
	var errs []error
	for _, e := range p.Sorted() {
		if err := e.Apply(t); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", e, err))
		}
	}
	return errs
}

// Scheduler fires a plan against a target in real time.
type Scheduler struct {
	events  []Event
	target  Target
	metrics *obs.Registry // nil disables; set before Start

	mu    sync.Mutex
	fired int
	errs  []error

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// SetMetrics attaches a registry: every fired event increments
// via_faults_injected_total{kind=...} (and _errors_total on failure), so
// the chaos harness can assert injections happened from the same snapshot
// it asserts recovery from. Call before Start.
func (s *Scheduler) SetMetrics(reg *obs.Registry) { s.metrics = reg }

// NewScheduler builds a scheduler; call Start to begin firing.
func NewScheduler(p *Plan, t Target) *Scheduler {
	return &Scheduler{
		events: p.Sorted(),
		target: t,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Start launches the firing goroutine. Event times are offsets from the
// moment Start is called.
func (s *Scheduler) Start() {
	go func() {
		defer close(s.done)
		start := time.Now()
		for _, e := range s.events {
			wait := e.At - time.Since(start)
			if wait > 0 {
				select {
				case <-time.After(wait):
				case <-s.stop:
					return
				}
			} else {
				select {
				case <-s.stop:
					return
				default:
				}
			}
			err := e.Apply(s.target)
			s.mu.Lock()
			s.fired++
			if err != nil {
				s.errs = append(s.errs, fmt.Errorf("%s: %w", e, err))
			}
			s.mu.Unlock()
			if s.metrics != nil {
				s.metrics.Counter(obs.L("via_faults_injected_total", "kind", e.Kind.String())).Inc()
				if err != nil {
					s.metrics.Counter("via_faults_errors_total").Inc()
				}
			}
		}
	}()
}

// Wait blocks until every event has fired (or Stop was called).
func (s *Scheduler) Wait() { <-s.done }

// Stop cancels events that have not fired yet.
func (s *Scheduler) Stop() {
	s.once.Do(func() { close(s.stop) })
	<-s.done
}

// Fired returns how many events have fired so far.
func (s *Scheduler) Fired() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fired
}

// Errors returns the per-event errors collected so far.
func (s *Scheduler) Errors() []error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]error(nil), s.errs...)
}
