package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/quality"
	"repro/internal/ring"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wan"
)

// Probes time one layer's public functions directly, on inputs built from
// the workload's own calls. They run once per traced run, after the
// repetitions, and feed only the per-layer list.

const (
	jsonProbeCalls  = 20000
	frameProbeOps   = 500000
	walHarvestCalls = 1024
	walProbeAppends = 20000
	walProbeSyncs   = 50
	ownerProbeOps   = 500000
	gateProbeOps    = 5000
	wanProbeWrites  = 20000
	wanDelayMs      = 20
	wanDelayPackets = 200
)

// perOp runs fn n times and returns the mean ns per call.
func perOp(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// keep records err as the probe's result unless an earlier error already
// is: probes run thousands of timed calls and report the first that failed.
func keep(first *error, err error) {
	if *first == nil {
		*first = err
	}
}

// timeEach runs fn n times and returns each call's ns.
func timeEach(n int, fn func(i int)) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		fn(i)
		out[i] = float64(time.Since(t0))
	}
	return out
}

func wireOptions(cands []netsim.Option) []transport.WireOption {
	out := make([]transport.WireOption, len(cands))
	for i, o := range cands {
		out[i] = transport.ToWireOption(o)
	}
	return out
}

// probeTransportJSON times the JSON work one call costs on the wire:
// marshal + unmarshal of the choose request and response, and of the
// report request, for the workload's own calls.
func probeTransportJSON(st *setupStreams, vals map[string]float64) error {
	var firstErr error
	roundTrip := func(in, out any) int {
		b, err := json.Marshal(in)
		keep(&firstErr, err)
		keep(&firstErr, json.Unmarshal(b, out))
		return len(b)
	}
	stream := st.lat
	var reqBytes int
	vals["transport.choose_json_ns"] = perOp(jsonProbeCalls, func(i int) {
		pair := stream[i%len(stream)]
		src, dst := pairGroups(pair)
		var req transport.ChooseRequest
		var resp transport.ChooseResponse
		reqBytes += roundTrip(transport.ChooseRequest{Src: src, Dst: dst, Candidates: wireOptions(st.cands[pair])}, &req)
		roundTrip(transport.ChooseResponse{Option: transport.ToWireOption(st.cands[pair][1])}, &resp)
	})
	vals["transport.choose_req_bytes"] = float64(reqBytes) / jsonProbeCalls
	vals["transport.report_json_ns"] = perOp(jsonProbeCalls, func(i int) {
		pair := stream[i%len(stream)]
		src, dst := pairGroups(pair)
		opt := st.cands[pair][1]
		var req transport.ReportRequest
		var resp transport.ReportResponse
		roundTrip(transport.ReportRequest{Src: src, Dst: dst, Option: transport.ToWireOption(opt),
			Metrics: transport.ToWireMetrics(measure(pair, opt))}, &req)
		roundTrip(transport.ReportResponse{OK: true}, &resp)
	})
	return firstErr
}

// probeCoreDirect replays a repetition's call stream straight into a fresh
// core.Via — warm-up in epoch 0, the rest a day later — timing Choose and
// Observe over the latency phase's calls. It cross-checks the strategy
// decorator's core.choose_ns_p50 and core.observe_ns_p50, which are taken
// inside a live controller with the decorator's own cost on top.
func probeCoreDirect(st *setupStreams, vals map[string]float64) {
	via := core.NewVia(core.DefaultViaConfig(quality.RTT), nil)
	var choose, observe []float64
	replay := func(stream []int32, tHours float64, timed bool) {
		for _, pair := range stream {
			src, dst := pairGroups(pair)
			call := core.Call{Src: netsim.ASID(src), Dst: netsim.ASID(dst), THours: tHours}
			t0 := time.Now()
			opt := via.Choose(call, st.cands[pair])
			t1 := time.Now()
			via.Observe(call, opt, measure(pair, opt))
			if timed {
				choose = append(choose, float64(t1.Sub(t0)))
				observe = append(observe, float64(time.Since(t1)))
			}
		}
	}
	for _, stream := range st.warm {
		replay(stream, 0.01, false)
	}
	for _, stream := range st.postJump {
		replay(stream, 25.01, false)
	}
	replay(st.lat, 25.02, true)
	vals["core.choose_direct_ns_p50"] = median(choose)
	vals["core.observe_direct_ns_p50"] = median(observe)
}

// probeFrameCodec times transport.Frame's Unmarshal and Marshal on the
// media workload's packets (half wire v2, half v3) and counts the heap
// allocations the pair makes.
func probeFrameCodec(seed uint64, vals map[string]float64) error {
	peer := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}
	hdrs, err := frameHeaders(seed, peer, []*net.UDPAddr{peer, peer})
	if err != nil {
		return err
	}
	pkts := make([][]byte, mediaSessions)
	for s := range pkts {
		pkts[s] = append(append([]byte(nil), hdrs[s+1]...), make([]byte, payloadLen)...)
	}
	var f transport.Frame
	vals["transport.frame_unmarshal_ns"] = perOp(frameProbeOps, func(i int) {
		keep(&err, f.Unmarshal(pkts[i%mediaSessions]))
	})
	out := make([]byte, 0, 2048)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	vals["transport.frame_marshal_ns"] = perOp(frameProbeOps, func(i int) {
		keep(&err, f.Unmarshal(pkts[i%mediaSessions]))
		out = f.Marshal(out[:0])
	}) - vals["transport.frame_unmarshal_ns"]
	runtime.ReadMemStats(&ms1)
	vals["transport.frame_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / frameProbeOps
	return err
}

// liveWALRecords returns what a system of the workload's kind logs for a
// few hundred of the workload's calls: it builds one under dir, places the
// calls after the virtual day boundary as the timed phases do, closes it and
// reads the records back from its log (the first shard's, for the ring).
func liveWALRecords(kind setupKind, st *setupStreams, dir string) (recs []wal.Record, err error) {
	sys, err := buildSystem(kind, dir, nil)
	if err != nil {
		return nil, err
	}
	defer sys.close() //vialint:ignore errwrap teardown close; the success path closes explicitly below
	sys.clock.offset.Store(int64(25 * time.Hour))
	newCaller(sys, nil).run(nil, st.lat[:min(len(st.lat), walHarvestCalls)], st.cands, 0, nil)
	walDir := dir
	if kind == kindRing {
		if _, walDir, _, err = sys.fleet.ShardState(sys.fleet.ShardIDs()[0]); err != nil {
			return nil, err
		}
	}
	if err := sys.close(); err != nil {
		return nil, err
	}
	log, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		return nil, err
	}
	defer func() { keep(&err, log.Close()) }()
	err = log.Replay(log.FirstLSN(), func(_ uint64, r wal.Record) error {
		recs = append(recs, wal.Record{Type: r.Type, Data: append([]byte(nil), r.Data...)})
		return nil
	})
	if err == nil && len(recs) == 0 {
		err = fmt.Errorf("wal probe: %d calls logged nothing", walHarvestCalls)
	}
	return recs, err
}

// probeWAL opens a log of its own under dir with the default group-commit
// interval and times Append, Sync, and the tail read the standby stream
// makes once per group commit: Replay(from = LastLSN), on a live segment
// holding 1k and then 16k records. Replay opens the segment and reads it
// from its start, so the second figure is expected to be about 16× the
// first. The records appended are the ones a live system of the workload's
// kind logged.
func probeWAL(kind setupKind, st *setupStreams, dir string, vals map[string]float64) (err error) {
	defer os.RemoveAll(dir) //vialint:ignore errwrap best-effort temp cleanup on every exit path
	recs, err := liveWALRecords(kind, st, filepath.Join(dir, "live"))
	if err != nil {
		return err
	}
	var frameBytes int
	for _, r := range recs {
		frameBytes += len(wal.EncodeFrame(nil, r))
	}
	vals["wal.bytes_per_record"] = float64(frameBytes) / float64(len(recs))

	log, err := wal.Open(filepath.Join(dir, "probe"), wal.Options{})
	if err != nil {
		return err
	}
	defer func() { keep(&err, log.Close()) }()

	appended := 0
	appendN := func(n int) []float64 {
		return timeEach(n, func(int) {
			_, aerr := log.Append(recs[appended%len(recs)])
			keep(&err, aerr)
			appended++
		})
	}
	tail := func() float64 {
		return median(timeEach(21, func(int) {
			keep(&err, log.Replay(log.LastLSN(), func(uint64, wal.Record) error { return nil }))
		})) / 1e3
	}
	appendN(1000)
	vals["wal.replay_tail_us_at_1k"] = tail()
	appendN(15000)
	vals["wal.replay_tail_us_at_16k"] = tail()
	vals["wal.append_ns_p50"] = median(appendN(walProbeAppends))
	syncs := make([]float64, walProbeSyncs)
	for i := range syncs {
		appendN(20) // a group commit's worth of dirty records
		t0 := time.Now()
		keep(&err, log.Sync())
		syncs[i] = float64(time.Since(t0))
	}
	vals["wal.sync_ms_p50"] = median(syncs) / 1e6
	return err
}

// probeRing times the ring's per-request additions without a network:
// Map.OwnerShard, and a Gate around a stub handler answering an owned pair
// (pass through) and a foreign one (307).
func probeRing(st *setupStreams, vals map[string]float64) error {
	shards := make([]ring.Shard, ringShards)
	for i := range shards {
		shards[i] = ring.Shard{ID: i, URL: fmt.Sprintf("http://127.0.0.1:%d", 9000+i)}
	}
	m, err := ring.NewMap(0, shards...)
	if err != nil {
		return err
	}
	stream := st.lat
	var sink int
	vals["ring.owner_lookup_ns"] = perOp(ownerProbeOps, func(i int) {
		src, dst := pairGroups(stream[i%len(stream)])
		sink += m.OwnerShard(src, dst).ID
	})

	stub := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	gate := ring.NewGate(0, stub, m, nil)
	var owned, foreign [][]byte
	for _, pair := range stream {
		src, dst := pairGroups(pair)
		body, err := json.Marshal(transport.ChooseRequest{Src: src, Dst: dst, Candidates: wireOptions(st.cands[pair])})
		if err != nil {
			return err
		}
		if m.OwnerShard(src, dst).ID == 0 {
			owned = append(owned, body)
		} else {
			foreign = append(foreign, body)
		}
	}
	if len(owned) == 0 || len(foreign) == 0 {
		return fmt.Errorf("ring probe: the call stream has no pair %s shard 0", map[bool]string{true: "on", false: "off"}[len(owned) == 0])
	}
	through := func(bodies [][]byte, want int) float64 {
		return median(timeEach(gateProbeOps, func(i int) {
			req := httptest.NewRequest(http.MethodPost, "/v1/choose", bytes.NewReader(bodies[i%len(bodies)]))
			rr := httptest.NewRecorder()
			gate.ServeHTTP(rr, req)
			if rr.Code != want {
				keep(&err, fmt.Errorf("ring probe: gate answered %d, want %d", rr.Code, want))
			}
		})) / 1e3
	}
	vals["ring.gate_self_us_p50"] = through(owned, http.StatusOK)
	vals["ring.redirect_us_p50"] = through(foreign, http.StatusTemporaryRedirect)
	return err
}

// probeWAN measures the wan shaper, which is test apparatus and not on the
// product path: WriteTo through a shaper with no impairment configured,
// and how far a 20 ms configured delay is from the delay delivered.
func probeWAN(seed uint64, vals map[string]float64) (err error) {
	src, err := listenLoopback()
	if err != nil {
		return err
	}
	shaper := wan.Wrap(src, seed)
	defer shaper.Close() //vialint:ignore errwrap teardown close of a probe socket
	dst, err := listenLoopback()
	if err != nil {
		return err
	}
	defer dst.Close() //vialint:ignore errwrap teardown close of a probe socket

	// Drain dst so its buffer never fills; an 8-byte packet is a delay
	// probe carrying its send time, in ns since base on the monotonic clock.
	base := time.Now()
	arrivals := make(chan time.Duration, wanDelayPackets) // sized to the delay probe's sends, so the drain never blocks
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		buf := make([]byte, 2*payloadLen)
		for {
			n, _, rerr := dst.ReadFromUDPAddrPort(buf)
			if rerr != nil {
				return // the read deadline set below ends the drain
			}
			if n == 8 {
				arrivals <- time.Since(base) - time.Duration(binary.BigEndian.Uint64(buf))
			}
		}
	}()
	addr := dst.LocalAddr()
	pkt := make([]byte, payloadLen)
	vals["wan.writeto_ns_p50"] = median(timeEach(wanProbeWrites, func(int) {
		_, werr := shaper.WriteTo(pkt, addr)
		keep(&err, werr)
	}))

	shaper.SetDefault(wan.LinkParams{DelayMs: wanDelayMs})
	var stamp [8]byte
	for i := 0; i < wanDelayPackets; i++ {
		binary.BigEndian.PutUint64(stamp[:], uint64(time.Since(base)))
		_, werr := shaper.WriteTo(stamp[:], addr)
		keep(&err, werr)
		time.Sleep(100 * time.Microsecond) // spread the timers; a burst would measure timer-queue contention
	}
	var late []float64 // delivered − configured delay
	timeout := time.After(time.Second)
	for len(late) < wanDelayPackets && err == nil {
		select {
		case d := <-arrivals:
			late = append(late, float64(d-wanDelayMs*time.Millisecond))
		case <-timeout:
			err = fmt.Errorf("wan probe: %d of %d delayed packets arrived", len(late), wanDelayPackets)
		}
	}
	vals["wan.delay_error_us_p50"] = median(late) / 1e3
	keep(&err, dst.SetReadDeadline(time.Now()))
	<-drained
	return err
}
