// Mobility faults (DESIGN.md §17): mid-call client rebinds, churn waves,
// and relay maintenance drains. These exercise the session-token data
// plane — the part of the system that must keep calls alive when the
// address a session was keyed by stops being true.
package faults

import (
	"time"

	"repro/internal/netsim"
)

// MobilityTarget is the extra surface a mobility-capable deployment
// exposes to fault plans. The testbed implements it alongside Target;
// Event.Apply type-asserts at firing time, so plans with mobility events
// fail cleanly (not silently) against a target that cannot serve them.
type MobilityTarget interface {
	// RebindClient swaps the named client's transport for a fresh socket
	// on a new address, mid-flight — a NAT rebinding or interface
	// handover. In-flight calls must be carried by the mobility layer,
	// not restarted.
	RebindClient(as netsim.ASID) error
	// SetRelayDraining toggles a relay's maintenance drain: no new
	// sessions, draining advertised on heartbeats, active calls nudged to
	// their backups. Lifting the drain returns the relay to service.
	SetRelayDraining(id netsim.RelayID, draining bool) error
}

// RebindClientAt schedules one client's NAT rebind.
func (p *Plan) RebindClientAt(at time.Duration, as netsim.ASID) *Plan { //vialint:ignore deadexport chaos DSL (DESIGN §9)
	return p.add(Event{At: at, Kind: NATRebind, A: ClientEnd(as)})
}

// ChurnAt schedules one churn wave: every listed client rebinds, in
// order, at the same instant.
func (p *Plan) ChurnAt(at time.Duration, clients ...netsim.ASID) *Plan {
	return p.add(Event{At: at, Kind: Churn, Clients: append([]netsim.ASID(nil), clients...)})
}

// ChurnEvery schedules `waves` churn waves starting at `start`, one every
// `every` — sustained mobility, each wave rebinding all listed clients.
func (p *Plan) ChurnEvery(start, every time.Duration, waves int, clients ...netsim.ASID) *Plan { //vialint:ignore deadexport chaos DSL (DESIGN §9)
	at := start
	for i := 0; i < waves; i++ {
		p.ChurnAt(at, clients...)
		at += every
	}
	return p
}

// DrainRelayAt schedules a relay's maintenance drain.
func (p *Plan) DrainRelayAt(at time.Duration, id netsim.RelayID) *Plan { //vialint:ignore deadexport chaos DSL (DESIGN §9)
	return p.add(Event{At: at, Kind: DrainRelay, Relay: id})
}

// UndrainRelayAt schedules the drain's end: the relay re-enters the
// directory and accepts new sessions again.
func (p *Plan) UndrainRelayAt(at time.Duration, id netsim.RelayID) *Plan { //vialint:ignore deadexport chaos DSL (DESIGN §9)
	return p.add(Event{At: at, Kind: DrainRelay, Relay: id, Off: true})
}
