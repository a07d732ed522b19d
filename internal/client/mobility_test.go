package client

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/rtp"
)

// droppingConn deterministically drops every Nth outgoing packet —
// synthetic forward loss between the agent and its first hop, so NACK
// repair has work to do on a clean loopback.
type droppingConn struct {
	net.PacketConn
	n     int64
	every int64
}

func dropEvery(c net.PacketConn, every int64) *droppingConn {
	return &droppingConn{PacketConn: c, every: every}
}

func (d *droppingConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	if atomic.AddInt64(&d.n, 1)%d.every == 0 {
		return len(b), nil // swallowed
	}
	return d.PacketConn.WriteTo(b, addr)
}

// TestRebindMidCallPreservesRepair is the client half of the tentpole:
// a mid-call NAT rebind (new socket, new source address) must not drop
// the call or reset its repair state. The relay re-validates the new
// source and re-pins the return path; receiver reports keep flowing and
// NACK retransmits keep being served across the handover — with forward
// loss injected on both sides of the rebind to prove the repair machinery
// itself survived, not just the media stream.
func TestRebindMidCallPreservesRepair(t *testing.T) {
	r := startRelay(t, 7)
	caller := New(1, dropEvery(udpConn(t), 9), 71)
	t.Cleanup(func() { caller.Close() })
	callee := newAgent(t, 2, 72)
	if err := caller.SetRelays(relayDir(r)); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(700 * time.Millisecond)
		// The new transport drops too: repair must work after the move.
		if err := caller.Rebind(dropEvery(udpConn(t), 9)); err != nil {
			t.Errorf("rebind: %v", err)
		}
	}()

	out, err := caller.CallResilient(CallSpec{
		Peer:     callee.Addr(),
		Option:   netsim.BounceOption(7),
		Duration: 2 * time.Second,
		PPS:      50,
		Repair:   rtp.SchemeNACK,
	})
	<-done
	if err != nil {
		t.Fatalf("call died across rebind: %v", err)
	}
	if got := caller.Rebinds(); got != 1 {
		t.Errorf("rebinds = %d, want 1", got)
	}
	if got := caller.PathResponses(); got < 1 {
		t.Errorf("path responses = %d, want >=1 (relay never challenged?)", got)
	}
	if got := r.Migrations(); got < 1 {
		t.Errorf("relay migrations = %d, want >=1 (return path never re-pinned)", got)
	}
	// Repair continuity: retransmits were actually served.
	if got := caller.NacksHonored(); got == 0 {
		t.Error("no NACK retransmits served despite injected loss")
	}
	// Failover never fired: the rebind was absorbed, not treated as a
	// dead path.
	if len(out.Failed) != 0 {
		t.Errorf("failed options = %v, want none", out.Failed)
	}
	// With every 9th packet dropped and NACK repair running across the
	// rebind, residual loss should be well under the raw 1/9 drop rate.
	if out.Metrics.LossRate > 0.08 {
		t.Errorf("residual loss = %v, want < 0.08 (repair state reset?)", out.Metrics.LossRate)
	}
}

// TestDrainMigrationMidCall: a draining relay nudges its active calls to
// move; the caller repaths in place to its backup option without counting
// a failover or reporting the drained option as failed.
func TestDrainMigrationMidCall(t *testing.T) {
	r1 := startRelay(t, 1)
	r2 := startRelay(t, 2)
	caller := newAgent(t, 1, 81)
	callee := newAgent(t, 2, 82)
	if err := caller.SetRelays(relayDir(r1, r2)); err != nil {
		t.Fatal(err)
	}

	go func() {
		time.Sleep(600 * time.Millisecond)
		r1.SetDraining(true)
	}()

	out, err := caller.CallResilient(CallSpec{
		Peer:     callee.Addr(),
		Option:   netsim.BounceOption(1),
		Failover: []netsim.Option{netsim.BounceOption(2)},
		Duration: 2 * time.Second,
		PPS:      50,
	})
	if err != nil {
		t.Fatalf("call died during drain: %v", err)
	}
	if out.Used != netsim.BounceOption(2) {
		t.Errorf("call finished on %v, want migration to bounce(2)", out.Used)
	}
	if len(out.Failed) != 0 {
		t.Errorf("failed options = %v; drain migration must not be punitive", out.Failed)
	}
	if got := caller.DrainMigrations(); got != 1 {
		t.Errorf("drain migrations = %d, want 1", got)
	}
	if got := caller.Failovers(); got != 0 {
		t.Errorf("failovers = %d, want 0 (drain is not a path death)", got)
	}
	if pkts, _, _ := r2.Stats(); pkts == 0 {
		t.Error("backup relay saw no traffic after the nudge")
	}
}
