package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"time"

	"repro/internal/relay"
	"repro/internal/transport"
	"repro/internal/wan"
)

// media-relay: one relay.Node on a loopback UDP socket, a sender and a sink
// socket in the bench. Traffic crosses the host's loopback interface, not a
// link: the figures are per-packet software cost, not wire behaviour.

// mediaCounts is one repetition's fixed work.
type mediaCounts struct {
	ping  int // window 1: send, wait for the sink, next — one-way latency per packet
	flood int // window floodWindow: packets/s and CPU per packet
}

const (
	floodWindow = 64
	mediaWarm   = 16 * mediaSessions // untimed packets, so every session and token entry exists and set-up is long enough to time
)

// mediaRig is one freshly built relay with its sender and sink.
type mediaRig struct {
	seed   uint64
	base   time.Time // zero of the span clock and of the send time in each payload
	node   *relay.Node
	served chan error   // Serve's return value
	timed  *timedConn   // traced repetitions only
	sender *net.UDPConn // the caller's socket
	sink   *net.UDPConn // the callee's socket
	relay  netip.AddrPort

	hdr    [mediaSessions + 1][]byte // per-session marshalled frame header (index = session id)
	seq    [mediaSessions + 1]uint64 // next sequence number to send
	want   [mediaSessions + 1]uint64 // next sequence number the sink expects
	sent   int64
	recvAt []int64 // traced: when each packet reached the sink, in ns since base
	pkt    []byte
	rbuf   []byte
	f      transport.Frame
}

func listenLoopback() (*net.UDPConn, error) {
	return net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
}

// buildMediaRig starts the relay and opens the endpoints. With traced set
// the relay's socket is wrapped in a timedConn; with shaped set, in a
// wan.Shaper with no impairment configured (the wan.shaped_pps_ratio probe).
func buildMediaRig(seed uint64, traced, shaped bool, samples int) (rig *mediaRig, err error) {
	rig = &mediaRig{seed: seed, base: time.Now(), served: make(chan error, 1), pkt: make([]byte, 0, 512), rbuf: make([]byte, 2048)}
	defer func() {
		if err != nil {
			rig.close() //vialint:ignore errwrap error path; the build failure is already being returned
		}
	}()
	relayConn, err := listenLoopback()
	if err != nil {
		return rig, err
	}
	rig.relay = relayConn.LocalAddr().(*net.UDPAddr).AddrPort()
	var conn net.PacketConn = relayConn
	if shaped {
		conn = wan.Wrap(conn, seed)
	}
	if traced {
		rig.timed = newTimedConn(conn, rig.base, samples)
		rig.recvAt = make([]int64, 0, samples)
		conn = rig.timed
	}
	rig.node = relay.New(1, conn)
	go func() { rig.served <- rig.node.Serve() }()
	if rig.sender, err = listenLoopback(); err != nil {
		return rig, err
	}
	if rig.sink, err = listenLoopback(); err != nil {
		return rig, err
	}

	rig.hdr, err = frameHeaders(seed, rig.sink.LocalAddr().(*net.UDPAddr),
		[]*net.UDPAddr{relayConn.LocalAddr().(*net.UDPAddr), rig.sender.LocalAddr().(*net.UDPAddr)})
	return rig, err
}

// frameHeaders marshals every session's frame header as a bounce call's
// caller writes it: forward route = the callee (the relay pops it and
// delivers), reply route = relay then caller. The payload follows the
// header on the wire, so a packet is header + payload. Index = session id.
func frameHeaders(seed uint64, callee *net.UDPAddr, reply []*net.UDPAddr) (hdr [mediaSessions + 1][]byte, err error) {
	for s := uint64(1); s <= mediaSessions; s++ {
		f := transport.Frame{Session: s, Kind: transport.KindMedia, Repair: 1, Token: sessionToken(seed, s)}
		if err := f.SetRoute([]*net.UDPAddr{callee}); err != nil {
			return hdr, err
		}
		if err := f.SetReply(reply); err != nil {
			return hdr, err
		}
		hdr[s] = f.Marshal(nil)
	}
	return hdr, nil
}

// close stops the relay and waits for its serve loop to end.
func (r *mediaRig) close() error {
	var errs []error
	if r.node != nil {
		errs = append(errs, r.node.Close(), <-r.served)
		r.node = nil
	}
	for _, c := range []*net.UDPConn{r.sender, r.sink} {
		if c != nil {
			errs = append(errs, c.Close())
		}
	}
	r.sender, r.sink = nil, nil
	return errors.Join(errs...)
}

// send writes the next packet of the round-robin session schedule to the
// relay, stamped with the send time: ns since base, read from the monotonic
// clock, so a wall-clock step cannot corrupt a sample.
func (r *mediaRig) send() error {
	session := uint64(r.sent%mediaSessions) + 1
	r.pkt = append(r.pkt[:0], r.hdr[session]...)
	n := len(r.pkt)
	r.pkt = r.pkt[:n+payloadLen]
	fillPayload(r.pkt[n:], r.seed, session, r.seq[session])
	binary.BigEndian.PutUint64(r.pkt[n+tsOffset:], uint64(time.Since(r.base)))
	r.seq[session]++
	r.sent++
	_, err := r.sender.WriteToUDPAddrPort(r.pkt, r.relay)
	return err
}

// recv reads one packet at the sink, checks that it is the next packet of
// its session with the payload intact, and returns its one-way time. A
// packet lost on the way shows up here as a timeout.
func (r *mediaRig) recv() (time.Duration, error) {
	if err := r.sink.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		return 0, err
	}
	n, _, err := r.sink.ReadFromUDPAddrPort(r.rbuf)
	now := time.Since(r.base)
	if err != nil {
		return 0, fmt.Errorf("sink: %w", err)
	}
	if r.timed != nil {
		r.recvAt = append(r.recvAt, int64(now))
	}
	if err := r.f.Unmarshal(r.rbuf[:n]); err != nil {
		return 0, fmt.Errorf("sink: %w", err)
	}
	s := r.f.Session
	if s < 1 || s > mediaSessions || len(r.f.Route) != 0 || !payloadIntact(r.f.Payload, r.seed) ||
		binary.BigEndian.Uint64(r.f.Payload[0:8]) != s {
		return 0, fmt.Errorf("sink: session %d delivered an altered packet", s)
	}
	if seq := binary.BigEndian.Uint64(r.f.Payload[8:16]); seq != r.want[s] {
		return 0, fmt.Errorf("sink: session %d delivered seq %d, want %d", s, seq, r.want[s])
	}
	r.want[s]++
	return now - time.Duration(binary.BigEndian.Uint64(r.f.Payload[tsOffset:])), nil
}

// ping sends n packets with a window of one and returns each one-way time
// in ns.
func (r *mediaRig) ping(n int) ([]float64, error) {
	lat := make([]float64, n)
	for i := range lat {
		if err := r.send(); err != nil {
			return nil, err
		}
		d, err := r.recv()
		if err != nil {
			return nil, err
		}
		lat[i] = float64(d)
	}
	return lat, nil
}

// flood sends n packets keeping window in flight, from the one generator
// goroutine: it fills the window, then sends the next packet each time the
// sink delivers one, so the loop is closed and nothing queues beyond the
// window. (A sender and a sink goroutine exchanging credits made three busy
// goroutines with the relay's on two cores; which of them shared a core
// flipped every few seconds and moved packets/s by ±10 %.) It returns the
// wall time, the process CPU used, and how long the generator sat in sink
// reads.
func (r *mediaRig) flood(n, window int) (wall, cpu, sinkWait time.Duration, err error) {
	cpu0, t0 := cpuTime(), time.Now()
	sent := 0
	for ; sent < window && sent < n; sent++ {
		if err := r.send(); err != nil {
			return 0, 0, 0, err
		}
	}
	for got := 0; got < n; got++ {
		w0 := time.Now()
		if _, err := r.recv(); err != nil {
			return 0, 0, 0, fmt.Errorf("after %d of %d packets: %w", got, n, err)
		}
		sinkWait += time.Since(w0)
		if sent < n {
			if err := r.send(); err != nil {
				return 0, 0, 0, err
			}
			sent++
		}
	}
	return time.Since(t0), cpuTime() - cpu0, sinkWait, nil
}

// runMediaRep runs one repetition of media-relay on a freshly built rig.
func runMediaRep(seed uint64, n mediaCounts, traced, shaped bool) (out repOut, err error) {
	vals := map[string]float64{}

	// Set-up: sockets, relay, and one packet per session so every session
	// and token entry exists before timing starts.
	t0 := time.Now()
	rig, err := buildMediaRig(seed, traced, shaped, mediaWarm+n.ping+n.flood)
	if err != nil {
		return out, fmt.Errorf("build: %w", err)
	}
	defer rig.close() //vialint:ignore errwrap teardown close; the success path closes explicitly below
	if _, err := rig.ping(mediaWarm); err != nil {
		return out, fmt.Errorf("warm-up: %w", err)
	}
	vals["setup_s"] = time.Since(t0).Seconds()

	lat, err := rig.ping(n.ping)
	if err != nil {
		return out, fmt.Errorf("ping: %w", err)
	}
	if err := latencyMetrics(lat, vals); err != nil {
		return out, err
	}

	var ms0, ms1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&ms0)
	}
	wall, cpu, wait, err := rig.flood(n.flood, floodWindow)
	if err != nil {
		return out, fmt.Errorf("flood: %w", err)
	}
	if traced {
		runtime.ReadMemStats(&ms1)
		vals["relay.allocs_per_pkt"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(n.flood)
	}
	vals["ops_per_s"] = float64(n.flood) / wall.Seconds()
	vals["cpu_us_per_op"] = float64(cpu.Microseconds()) / float64(n.flood)
	vals["bench.gen_wait_frac"] = float64(wait) / float64(wall)

	// Output checks: every packet sent was forwarded, none dropped. (That
	// each arrived intact and in order is checked as it is received.)
	out.attempted = rig.sent
	forwarded, _, dropped := rig.node.Stats()
	sessions := rig.node.Sessions()
	vals["relay.dropped"] = float64(dropped)
	vals["relay.kernel_drops"] = float64(rig.sent - forwarded - dropped)
	vals["relay.sessions"] = float64(sessions)
	if forwarded != rig.sent || dropped != 0 {
		return out, fmt.Errorf("relay forwarded %d and dropped %d of %d packets sent", forwarded, dropped, rig.sent)
	}
	if sessions != mediaSessions {
		return out, fmt.Errorf("relay holds %d sessions, want %d", sessions, mediaSessions)
	}
	timed, recvAt := rig.timed, rig.recvAt
	if err := rig.close(); err != nil {
		return out, fmt.Errorf("close: %w", err)
	}

	if timed != nil {
		// The serve loop has ended, so the samples are ours to read. They
		// are in send order: warm-up, ping, flood.
		floodSamples := timed.samples[mediaWarm+n.ping:]
		var handle, write []float64
		var busy int64
		for _, s := range floodSamples {
			handle = append(handle, float64(s.writeAt-s.readAt))
			write = append(write, float64(s.writeEnd-s.writeAt))
			busy += s.writeEnd - s.readAt
		}
		vals["relay.handle_ns_p50"] = quantile(handle, 0.50)
		vals["relay.handle_ns_p99"] = quantile(handle, 0.99)
		vals["relay.writeto_ns_p50"] = quantile(write, 0.50)
		// The serve loop is either blocked in ReadFrom or busy with a
		// packet; under 0.1 here means the relay, not the generator, is
		// what limits ops_per_s.
		vals["relay.readfrom_wait_frac"] = 1 - float64(busy)/float64(wall)
		out.spans = pingSpans(timed.samples, recvAt, lat, n.ping)
	}
	out.vals = vals
	return out, nil
}

// pingSpans lays the ping phase out as spans for the trace file: each
// packet's sender-to-sink interval, and under it the relay's handle and
// WriteTo intervals as the conn wrapper timed them.
func pingSpans(samples []connSample, recvAt []int64, lat []float64, n int) []span {
	spans := make([]span, 0, 3*n)
	for i := 0; i < n; i++ {
		s, got := samples[mediaWarm+i], recvAt[mediaWarm+i]
		root := int32(len(spans) + 1)
		spans = append(spans,
			span{call: int32(i), name: spPacket, start: got - int64(lat[i]), end: got},
			span{parent: root, call: int32(i), name: spRelayHandle, start: s.readAt, end: s.writeAt},
			span{parent: root, call: int32(i), name: spRelayWrite, start: s.writeAt, end: s.writeEnd})
	}
	return spans
}
