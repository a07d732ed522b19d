// Loss-repair data plane: the agent-side halves of NACK retransmit and
// XOR-FEC recovery. The caller keeps a ring of sent wire frames and
// serves retransmits on NACK; the callee tracks sequence gaps, requests
// overdue packets, and folds FEC parity into its decoder. RED needs no
// state here beyond duplicate detection in FlowStats. The scheme itself
// is negotiated in CallResilient (see client.go): it rides in every
// frame's repair byte, and the callee adopts the first one it sees.
package client

import (
	"net"

	"repro/internal/rtp"
	"repro/internal/transport"
)

// setupRepairLocked lazily builds the callee-side repair state for the
// scheme announced by the session's first repair byte. SchemeFromByte has
// already degraded anything unknown to SchemeNone, so an agent never
// fails a call over a scheme it cannot run — it just measures plainly.
// Called with ic.mu held.
func (ic *inCall) setupRepairLocked(s rtp.Scheme) {
	ic.scheme = s
	switch {
	case s == rtp.SchemeNACK:
		ic.gap = &rtp.GapTracker{}
		ic.nack = rtp.NewNACKGenerator(rtp.NACKConfig{})
	case s.IsFEC():
		ic.fecDec = rtp.NewFECDecoder(s.FECGroup())
	}
}

// sendNack ships one bounded retransmit request back along the reply
// route. Best-effort: a lost NACK is re-requested at the next interval
// until the retry cap or playout deadline gives up on the gap.
func (a *Agent) sendNack(session uint64, ssrc uint32, seqs []uint16, reply []*net.UDPAddr, tok transport.Token) {
	if len(reply) == 0 {
		return
	}
	var f transport.Frame
	f.Session = session
	f.Kind = transport.KindNack
	f.Token = tok
	if err := f.SetRoute(reply[1:]); err != nil {
		return
	}
	req := rtp.NACKRequest{SSRC: ssrc, Seqs: seqs}
	f.Payload = req.Marshal(nil)
	if _, err := a.pc().WriteTo(f.Marshal(nil), reply[0]); err == nil {
		a.nacksSent.Add(int64(len(seqs)))
	}
}

// handleNack is the caller side of retransmission: look the requested
// sequence numbers up in the call's retransmit ring and re-send the
// stored wire frames verbatim. A seq that has already been overwritten
// in the ring (or a call that runs no repair and keeps no ring) is silently
// skipped — the receiver's retry/deadline machinery owns giving up.
func (a *Agent) handleNack(f *transport.Frame) {
	var req rtp.NACKRequest
	if err := req.Unmarshal(f.Payload); err != nil {
		return
	}
	a.mu.Lock()
	oc := a.outgoing[f.Session]
	a.mu.Unlock()
	if oc == nil {
		return
	}
	// Copy the frames out under the lock: the ring slots are rewritten in
	// place by the sender's Put.
	oc.mu.Lock()
	sendTo := oc.sendTo
	var wires [][]byte
	if oc.rtx != nil && sendTo != nil {
		for _, seq := range req.Seqs {
			if w, ok := oc.rtx.Get(seq); ok {
				wires = append(wires, append([]byte(nil), w...))
			}
		}
	}
	oc.mu.Unlock()
	for _, w := range wires {
		if _, err := a.pc().WriteTo(w, sendTo); err == nil {
			a.nacksHonored.Add(1)
		}
	}
}

// handleFEC is the callee side of XOR-FEC: feed the parity packet to the
// group decoder and credit any packet it completes. Parity may outrun the
// session's first media frame, so repair state is initialized here too.
func (a *Agent) handleFEC(f *transport.Frame) {
	var fp rtp.FECPacket
	if err := fp.Unmarshal(f.Payload); err != nil {
		return
	}
	a.mu.Lock()
	ic := a.incoming[f.Session]
	if ic == nil {
		ic = &inCall{}
		a.incoming[f.Session] = ic
	}
	a.mu.Unlock()
	ic.mu.Lock()
	if ic.scheme == rtp.SchemeNone && f.Repair != 0 {
		ic.setupRepairLocked(rtp.SchemeFromByte(f.Repair))
	}
	if ic.fecDec != nil {
		if rec, ok := ic.fecDec.AddParity(&fp); ok {
			ic.flow.ObserveRecovered(rec.Seq)
			a.fecRecovered.Add(1)
		}
	}
	ic.mu.Unlock()
}
